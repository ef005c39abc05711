// Convenience constructors for the paper's testbed configurations.

#ifndef SRC_CORE_PLATFORM_H_
#define SRC_CORE_PLATFORM_H_

#include <memory>

#include "src/common/config.h"
#include "src/core/system.h"

namespace pmemsim {

// G1 testbed: Xeon Gold 6320 + six 128 GB 100-series Optane DIMMs.
std::unique_ptr<System> MakeG1System(uint32_t optane_dimm_count = kTestbedOptaneDimms);

// G2 testbed: Xeon Gold 5317 + six 128 GB 200-series Optane DIMMs.
std::unique_ptr<System> MakeG2System(uint32_t optane_dimm_count = kTestbedOptaneDimms);

std::unique_ptr<System> MakeSystem(Generation gen,
                                   uint32_t optane_dimm_count = kTestbedOptaneDimms);

// Disables/enables every CPU prefetcher on a thread (BIOS-switch equivalent).
void SetPrefetchers(ThreadContext& ctx, bool adjacent, bool dcu, bool stream);

}  // namespace pmemsim

#endif  // SRC_CORE_PLATFORM_H_
