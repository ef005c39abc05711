// The pmemsim_crashcheck driver, as a library so the determinism property
// test can invoke the full flag-to-JSON pipeline in-process.
//
// Flow: one calibration run counts the crash events a workload generates and
// measures the vulnerable-byte window; `--points` event indexes are then
// sampled (seeded, replayable) and cut into --jobs contiguous chunks. Each
// chunk is one sweep point: one RunCrashPoints pass that materializes and
// validates every sampled event it reaches. Output is CSV on stdout plus the
// standard --stats_json report; rows are byte-identical at any --jobs.

#ifndef TOOLS_CRASHCHECK_LIB_H_
#define TOOLS_CRASHCHECK_LIB_H_

namespace pmemsim_crashcheck {

// Returns the process exit code: 0 clean, 1 when any crash point failed
// validation (or a point crashed the harness), 2 on bad flags (via exit).
int RunCrashcheck(int argc, char** argv);

}  // namespace pmemsim_crashcheck

#endif  // TOOLS_CRASHCHECK_LIB_H_
