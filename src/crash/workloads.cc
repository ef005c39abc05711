#include "src/crash/workloads.h"

#include <cstring>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/datastores/cceh.h"
#include "src/datastores/fast_fair.h"
#include "src/datastores/flat_log.h"
#include "src/persist/redo_log.h"
#include "src/persist/undo_log.h"

namespace pmemsim {

namespace {

// Non-zero, effectively unique keys/values from the workload seed.
uint64_t KeyAt(uint64_t seed, uint64_t i) { return Mix64(Mix64(seed ^ 0xC4A5) + i) | 1; }
uint64_t ValueAt(uint64_t key) { return Mix64(key ^ 0xABCD) | 1; }

// ---- CCEH: unique-key inserts; splits and directory doubling included. ----
class CcehCrashWorkload : public CrashWorkload {
 public:
  explicit CcehCrashWorkload(const CrashWorkloadOptions& opts) : opts_(opts) {}

  void Setup(System& system, ThreadContext& ctx) override {
    // Start with 2 segments so the run exercises splits and doubling.
    cceh_ = std::make_unique<Cceh>(&system, ctx, /*initial_depth=*/1, MemoryKind::kOptane);
    cceh_->set_skip_persist_for_test(opts_.break_persist);
  }

  void Run(ThreadContext& ctx) override {
    for (uint64_t i = 0; i < opts_.ops; ++i) {
      const uint64_t key = KeyAt(opts_.seed, i);
      const uint64_t value = ValueAt(key);
      exp_.attempted.Insert(key, true);
      cceh_->Insert(ctx, key, value);
      exp_.acked.emplace_back(key, value);
    }
  }

  void Validate(System& fresh, ThreadContext& ctx, ValidationReport* report) override {
    (void)ctx;
    // The volatile directory pointer/depth are consistent at every crash
    // point: DoubleDirectory persists the new directory before switching.
    exp_.directory = cceh_->directory_addr();
    exp_.global_depth = cceh_->global_depth();
    ValidateCceh(fresh.backing(), exp_, report);
  }

  uint64_t acked_ops() const override { return exp_.acked.size(); }

 private:
  CrashWorkloadOptions opts_;
  std::unique_ptr<Cceh> cceh_;
  CcehExpectation exp_;
};

// ---- FAST&FAIR: unique-key in-place inserts (the barrier-per-shift mode
// whose torn states the leaf-chain validator filters). ----
class FastFairCrashWorkload : public CrashWorkload {
 public:
  explicit FastFairCrashWorkload(const CrashWorkloadOptions& opts) : opts_(opts) {}

  void Setup(System& system, ThreadContext& ctx) override {
    tree_ = std::make_unique<FastFairTree>(&system, ctx, MemoryKind::kOptane);
  }

  void Run(ThreadContext& ctx) override {
    for (uint64_t i = 0; i < opts_.ops; ++i) {
      const uint64_t key = KeyAt(opts_.seed, i);
      const uint64_t value = ValueAt(key);
      exp_.attempted.Insert(key, value);
      tree_->Insert(ctx, key, value, BTreeUpdateMode::kInPlace);
      exp_.acked.emplace_back(key, value);
    }
  }

  void Validate(System& fresh, ThreadContext& ctx, ValidationReport* report) override {
    (void)ctx;
    exp_.meta = tree_->meta_addr();
    exp_.max_nodes = tree_->node_count() * 4 + 16;
    ValidateFastFair(fresh.backing(), exp_, report);
  }

  uint64_t acked_ops() const override { return exp_.acked.size(); }

 private:
  CrashWorkloadOptions opts_;
  std::unique_ptr<FastFairTree> tree_;
  FastFairExpectation exp_;
};

// ---- FlatLog: batched appends; acked at each batch flush. ----
class FlatLogCrashWorkload : public CrashWorkload {
 public:
  explicit FlatLogCrashWorkload(const CrashWorkloadOptions& opts) : opts_(opts) {}

  void Setup(System& system, ThreadContext& ctx) override {
    (void)ctx;
    exp_.region = system.AllocatePm(
        AlignUp((opts_.ops + FlatLog::kSlotsPerBatch * 2) * FlatLog::kSlotSize, kXPLineSize),
        kXPLineSize);
    log_ = std::make_unique<FlatLog>(&system, exp_.region);
  }

  void Run(ThreadContext& ctx) override {
    for (uint64_t i = 0; i < opts_.ops; ++i) {
      const uint64_t key = KeyAt(opts_.seed, i);
      const uint32_t len = 8 + static_cast<uint32_t>(i % 24);  // 8..31 <= kMaxPayload
      std::vector<uint8_t> payload(len);
      for (uint32_t j = 0; j < len; ++j) {
        payload[j] = static_cast<uint8_t>(Mix64(key + j));
      }
      // The exact slot image FlushBatch will write for this record.
      std::array<uint8_t, 64> image{};
      std::memcpy(image.data(), &key, sizeof(key));
      std::memcpy(image.data() + 8, &len, sizeof(len));
      const uint32_t magic = FlatLog::kRecordMagic;
      std::memcpy(image.data() + 12, &magic, sizeof(magic));
      std::memcpy(image.data() + 16, payload.data(), len);
      exp_.slot_images.push_back(image);
      exp_.attempted.Insert(key, true);
      pending_kv_.emplace_back(key, payload);

      PMEMSIM_CHECK(log_->Put(ctx, key, payload.data(), len));
      if (log_->records_appended() % FlatLog::kSlotsPerBatch == 0) {
        // The batch flushed inside Put: its 4 records are now acked.
        exp_.acked_slots = log_->records_appended();
        for (auto& kv : pending_kv_) {
          exp_.acked_kv.push_back(std::move(kv));
        }
        pending_kv_.clear();
      }
    }
  }

  void Validate(System& fresh, ThreadContext& ctx, ValidationReport* report) override {
    ValidateFlatLog(&fresh, ctx, exp_, report);
  }

  uint64_t acked_ops() const override { return exp_.acked_kv.size(); }

 private:
  CrashWorkloadOptions opts_;
  std::unique_ptr<FlatLog> log_;
  FlatLogExpectation exp_;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> pending_kv_;
};

// ---- Redo log: transactions of 4 word updates, committed then applied. ----
class RedoCrashWorkload : public CrashWorkload {
 public:
  static constexpr uint64_t kTargets = 64;
  static constexpr uint64_t kUpdatesPerTxn = 4;

  explicit RedoCrashWorkload(const CrashWorkloadOptions& opts) : opts_(opts) {}

  void Setup(System& system, ThreadContext& ctx) override {
    (void)ctx;
    const PmRegion data = system.AllocatePm(kTargets * kCacheLineSize, kCacheLineSize);
    for (uint64_t i = 0; i < kTargets; ++i) {
      exp_.targets.push_back(data.At(i * kCacheLineSize));  // one word per line
    }
    exp_.committed.assign(kTargets, 0);
    // Sized so the ring never wraps (epoch stays 1): updates + commits + slack.
    const uint64_t records = opts_.ops + opts_.ops / kUpdatesPerTxn + 8;
    exp_.log_region =
        system.AllocatePm(records * RedoLog::kRecordSize, kCacheLineSize);
    log_ = std::make_unique<RedoLog>(&system, exp_.log_region);
  }

  void Run(ThreadContext& ctx) override {
    Rng rng(Mix64(opts_.seed ^ 0x7ED0));
    const uint64_t txns = opts_.ops / kUpdatesPerTxn;
    for (uint64_t t = 0; t < txns; ++t) {
      uint64_t picked[kUpdatesPerTxn];
      for (uint64_t j = 0; j < kUpdatesPerTxn; ++j) {
        bool fresh_pick = false;
        while (!fresh_pick) {
          picked[j] = rng.NextBelow(kTargets);
          fresh_pick = true;
          for (uint64_t k = 0; k < j; ++k) {
            fresh_pick = fresh_pick && picked[k] != picked[j];
          }
        }
      }
      for (uint64_t j = 0; j < kUpdatesPerTxn; ++j) {
        const uint64_t value = Mix64(opts_.seed + t * kUpdatesPerTxn + j) | 1;
        exp_.inflight.emplace_back(picked[j], value);
        log_->LogUpdate(ctx, exp_.targets[picked[j]], &value, sizeof(value));
      }
      exp_.inflight_reached_commit = true;
      log_->Commit(ctx);
      // Acked: the group is durable whether or not Apply's cached stores land.
      for (const auto& [index, value] : exp_.inflight) {
        exp_.committed[index] = value;
      }
      exp_.inflight.clear();
      exp_.inflight_reached_commit = false;
      log_->Apply(ctx);
      ++acked_txns_;
    }
  }

  void Validate(System& fresh, ThreadContext& ctx, ValidationReport* report) override {
    ValidateRedo(&fresh, ctx, exp_, report);
  }

  uint64_t acked_ops() const override { return acked_txns_; }

 private:
  CrashWorkloadOptions opts_;
  std::unique_ptr<RedoLog> log_;
  RedoExpectation exp_;
  uint64_t acked_txns_ = 0;
};

// ---- Undo log: transactions of 4 in-place word stores over 8 fields. ----
class UndoCrashWorkload : public CrashWorkload {
 public:
  static constexpr uint64_t kFields = 8;
  static constexpr uint64_t kStoresPerTxn = 4;

  explicit UndoCrashWorkload(const CrashWorkloadOptions& opts) : opts_(opts) {}

  void Setup(System& system, ThreadContext& ctx) override {
    (void)ctx;
    const PmRegion data = system.AllocatePm(kFields * kCacheLineSize, kCacheLineSize);
    for (uint64_t i = 0; i < kFields; ++i) {
      exp_.fields.push_back(data.At(i * kCacheLineSize));
    }
    exp_.committed.assign(kFields, 0);  // fresh PM reads as zero
    exp_.log_region = system.AllocatePm(16 * Transaction::kRecordSize, kCacheLineSize);
    tx_ = std::make_unique<Transaction>(&system, exp_.log_region);
  }

  void Run(ThreadContext& ctx) override {
    Rng rng(Mix64(opts_.seed ^ 0x04D0));
    const uint64_t txns = opts_.ops / kStoresPerTxn;
    for (uint64_t t = 0; t < txns; ++t) {
      tx_->Begin(ctx);
      uint64_t picked[kStoresPerTxn];
      for (uint64_t j = 0; j < kStoresPerTxn; ++j) {
        bool fresh_pick = false;
        while (!fresh_pick) {
          picked[j] = rng.NextBelow(kFields);
          fresh_pick = true;
          for (uint64_t k = 0; k < j; ++k) {
            fresh_pick = fresh_pick && picked[k] != picked[j];
          }
        }
        const uint64_t value = Mix64(opts_.seed + t * kStoresPerTxn + j) | 1;
        exp_.inflight.emplace_back(picked[j], value);
        tx_->Store64(ctx, exp_.fields[picked[j]], value);
      }
      exp_.inflight_reached_commit = true;
      tx_->Commit(ctx);
      for (const auto& [index, value] : exp_.inflight) {
        exp_.committed[index] = value;
      }
      exp_.inflight.clear();
      exp_.inflight_reached_commit = false;
      ++acked_txns_;
    }
  }

  void Validate(System& fresh, ThreadContext& ctx, ValidationReport* report) override {
    ValidateUndo(&fresh, ctx, exp_, report);
  }

  uint64_t acked_ops() const override { return acked_txns_; }

 private:
  CrashWorkloadOptions opts_;
  std::unique_ptr<Transaction> tx_;
  UndoExpectation exp_;
  uint64_t acked_txns_ = 0;
};

}  // namespace

std::unique_ptr<CrashWorkload> CrashWorkload::Create(std::string_view store,
                                                     const CrashWorkloadOptions& opts) {
  if (store == "cceh") {
    return std::make_unique<CcehCrashWorkload>(opts);
  }
  if (store == "fastfair") {
    return std::make_unique<FastFairCrashWorkload>(opts);
  }
  if (store == "flatlog") {
    return std::make_unique<FlatLogCrashWorkload>(opts);
  }
  if (store == "redo") {
    return std::make_unique<RedoCrashWorkload>(opts);
  }
  if (store == "undo") {
    return std::make_unique<UndoCrashWorkload>(opts);
  }
  return nullptr;
}

std::vector<std::string> CrashWorkload::StoreNames() {
  return {"cceh", "fastfair", "flatlog", "redo", "undo"};
}

CrashCalibration CalibrateCrashWorkload(const PlatformConfig& platform, std::string_view store,
                                        const CrashWorkloadOptions& opts) {
  return RunCrashPoints(platform, store, opts, {}, 0, PersistTracker::TearGranularity::kWord, {});
}

uint64_t TearSeedFor(uint64_t seed, uint64_t event_index) {
  return Mix64(seed ^ (0x9E3779B97F4A7C15ull * (event_index + 1)));
}

CrashCalibration RunCrashPoints(const PlatformConfig& platform, std::string_view store,
                                const CrashWorkloadOptions& opts,
                                const std::vector<uint64_t>& sorted_events, uint64_t tear_seed,
                                PersistTracker::TearGranularity granularity,
                                const std::function<void(const CrashPointResult&)>& on_point) {
  // The tracker records every PM write from the first, Setup() included.
  System system(platform);
  PersistTracker tracker(platform.eadr_enabled);
  tracker.Attach(&system);
  ThreadContext& ctx = system.CreateThread();
  auto workload = CrashWorkload::Create(store, opts);
  PMEMSIM_CHECK_MSG(workload != nullptr, "unknown crash workload store");
  workload->Setup(system, ctx);
  size_t fired = 0;
  CrashInjector injector;
  injector.ArmAll(sorted_events, [&](uint64_t event, CrashEventKind kind, Cycles crash_now) {
    CrashPointResult point;
    point.event = event;
    point.kind = kind;
    point.crash_now = crash_now;
    point.acked_ops = workload->acked_ops();
    System fresh(platform);
    point.mat = tracker.Materialize(&fresh.backing(), crash_now, TearSeedFor(tear_seed, event),
                                    granularity);
    ThreadContext& vctx = fresh.CreateThread();
    workload->Validate(fresh, vctx, &point.report);
    ++fired;
    on_point(point);
  });
  tracker.StartEvents(&injector);
  workload->Run(ctx);
  PMEMSIM_CHECK_MSG(fired == sorted_events.size(), "a listed crash event never fired");
  return {injector.events_seen(), workload->acked_ops(), tracker.stats()};
}

}  // namespace pmemsim
