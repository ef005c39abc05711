// ServiceTier: the shared-DIMM serving deployment — every shard domain of a
// DomainTier on one borrowed System, so all shards contend for the same iMC,
// WPQs, on-DIMM read/write buffers and AIT. This is pmemsim_serve's default
// configuration. The domains run in lockstep with no dispatch hop (see
// src/serve/domain_tier.h): preload, then serve until every shard drains.
//
// Determinism: the tier runs on one OS thread; all randomness derives from
// cfg.seed. Running independent tiers on separate System instances (one per
// sweep point) is what makes the CLI's --jobs parallelism byte-stable.

#ifndef SRC_SERVE_TIER_H_
#define SRC_SERVE_TIER_H_

#include <memory>
#include <vector>

#include "src/core/system.h"
#include "src/serve/domain_tier.h"

namespace pmemsim {

class ServiceTier : public DomainTier {
 public:
  // Creates cfg.shards domains of cfg.workers_per_shard workers each on
  // `system` (construction builds the stores; preload happens in Run).
  ServiceTier(System* system, const ServeConfig& cfg) : DomainTier(system, cfg) {}

  const std::vector<std::unique_ptr<ServeDomain>>& shards() const { return domains(); }
};

}  // namespace pmemsim

#endif  // SRC_SERVE_TIER_H_
