// Per-structure recovery invariant checkers.
//
// Each Validate* function inspects a MATERIALIZED durable image (a fresh
// System whose BackingStore was populated by PersistTracker::Materialize) and
// checks the structure's crash-consistency contract against what the workload
// knows it did. CCEH and FAST&FAIR have no recovery step, so their checks
// read the image's bytes straight from the BackingStore, untimed; the logs
// run their structure's real Recover through a ThreadContext on the image.
// The checks are:
//
//  - acked operations (the call returned before the crash) must be fully
//    visible with their exact values;
//  - attempted-but-unacked operations may surface completely, partially
//    (torn), or not at all — but only in states the recovery procedure is
//    specified to tolerate;
//  - nothing else may appear (no phantoms).
//
// All violation messages are emitted in a deterministic order (sorted or
// program-order scans — never unordered-container iteration), so crashcheck
// JSON output is byte-reproducible.

#ifndef SRC_CRASH_RECOVERY_VALIDATOR_H_
#define SRC_CRASH_RECOVERY_VALIDATOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/backing_store.h"
#include "src/common/flat_map.h"
#include "src/common/types.h"
#include "src/core/system.h"
#include "src/cpu/thread_context.h"

namespace pmemsim {

struct ValidationReport {
  uint64_t checks = 0;
  uint64_t violations = 0;
  std::vector<std::string> messages;  // first kMaxMessages violation messages

  static constexpr size_t kMaxMessages = 4;

  // Records one invariant check; on failure counts it as a violation.
  // `message` is a callable returning the violation's std::string. It runs
  // only for a violation that is kept, so passing checks (and violations
  // past the first kMaxMessages) build no string.
  template <typename MessageFn>
  void Check(bool ok, MessageFn&& message) {
    ++checks;
    if (!ok) {
      Fail(message);
    }
  }
  template <typename MessageFn>
  void Fail(MessageFn&& message) {
    ++violations;
    if (messages.size() < kMaxMessages) {
      messages.push_back(message());
    }
  }
};

// ---- CCEH ----
// Invariants: every acked insert is found by the probe procedure with its
// exact value; every non-empty slot in every live segment holds an attempted
// key (no phantoms). Unacked attempted keys may be present with any value
// (the torn slot may pair a committed key word with a stale value word).
struct CcehExpectation {
  Addr directory = 0;
  uint32_t global_depth = 0;
  std::vector<std::pair<uint64_t, uint64_t>> acked;  // key -> value, ack order
  FlatMap<uint64_t, bool> attempted;                 // every key ever attempted
};
void ValidateCceh(const BackingStore& image, const CcehExpectation& exp, ValidationReport* report);

// ---- FAST&FAIR ----
// Walks the leaf chain from the leftmost leaf, filters transient duplicate
// entries with the no-duplicate invariant, and checks: valid entries are
// non-strictly sorted per node, every valid key is an attempted key with its
// exact planned value, and every acked key is present.
struct FastFairExpectation {
  Addr meta = 0;
  std::vector<std::pair<uint64_t, uint64_t>> acked;
  FlatMap<uint64_t, uint64_t> attempted;  // key -> planned value
  uint64_t max_nodes = 0;                 // chain-walk budget (cycle guard)
};
void ValidateFastFair(const BackingStore& image, const FastFairExpectation& exp,
                      ValidationReport* report);

// ---- FlatLog ----
// Byte-compares every acked (batch-flushed) slot against the exact image the
// workload staged; structurally checks the unacked tail (a valid-looking slot
// must carry an attempted key, or key 0 from a torn write over fresh zeros);
// then runs the real FlatLog::Recover on the image and point-reads every
// acked key.
struct FlatLogExpectation {
  PmRegion region;
  uint64_t acked_slots = 0;  // slots [0, acked_slots) were batch-flushed
  std::vector<std::array<uint8_t, 64>> slot_images;  // expected, per appended slot
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> acked_kv;  // ack order
  FlatMap<uint64_t, bool> attempted;
};
void ValidateFlatLog(System* fresh, ThreadContext& ctx, const FlatLogExpectation& exp,
                     ValidationReport* report);

// ---- RedoLog ----
// Runs RedoLog::Recover on the image, then checks every target word: targets
// not covered by the in-flight transaction must hold their last committed
// value; targets covered by it must hold either the old or the new value,
// new only if the workload had reached Commit(), and all-or-nothing across
// the transaction (redo groups replay atomically).
struct RedoExpectation {
  PmRegion log_region;
  std::vector<Addr> targets;
  std::vector<uint64_t> committed;  // parallel to targets: last acked value
  bool inflight_reached_commit = false;
  std::vector<std::pair<size_t, uint64_t>> inflight;  // (target index, new value)
};
void ValidateRedo(System* fresh, ThreadContext& ctx, const RedoExpectation& exp,
                  ValidationReport* report);

// ---- Undo log ----
// Runs Transaction::Recover on the image, then requires the field image to
// equal exactly the last committed state A, or — only if the workload had
// reached Commit() — exactly the in-flight state B. Anything in between is a
// rollback failure.
struct UndoExpectation {
  PmRegion log_region;
  std::vector<Addr> fields;
  std::vector<uint64_t> committed;  // state A, parallel to fields
  bool inflight_reached_commit = false;
  std::vector<std::pair<size_t, uint64_t>> inflight;  // B = A + these deltas
};
void ValidateUndo(System* fresh, ThreadContext& ctx, const UndoExpectation& exp,
                  ValidationReport* report);

}  // namespace pmemsim

#endif  // SRC_CRASH_RECOVERY_VALIDATOR_H_
