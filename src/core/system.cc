#include "src/core/system.h"

#include <string>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/trace/recorder.h"

namespace pmemsim {

System::System(const PlatformConfig& config, uint32_t optane_dimm_count) : config_(config) {
  counters_.BindAggregate(&registry_);
  mc_ = std::make_unique<MemoryController>(config_, &registry_, optane_dimm_count);
  l3_ = std::make_unique<SetAssocCache>(config_.cache.l3);
}

PmRegion System::AllocatePm(uint64_t bytes, uint64_t align) {
  PMEMSIM_CHECK(bytes > 0);
  pm_next_ = AlignUp(pm_next_, align);
  const PmRegion region{pm_next_, bytes, MemoryKind::kOptane};
  pm_next_ += AlignUp(bytes, align);
  PMEMSIM_CHECK_MSG(pm_next_ < kDramAddressBase, "PM address space exhausted");
  return region;
}

PmRegion System::AllocateDram(uint64_t bytes, uint64_t align) {
  PMEMSIM_CHECK(bytes > 0);
  dram_next_ = AlignUp(dram_next_, align);
  const PmRegion region{dram_next_, bytes, MemoryKind::kDram};
  dram_next_ += AlignUp(bytes, align);
  return region;
}

ThreadContext& System::CreateThread(NodeId node) {
  thread_seed_ = Mix64(thread_seed_ + 0x9E3779B97F4A7C15ull);
  return AdoptThread(std::make_unique<ThreadContext>(config_, &backing_, mc_.get(), l3_.get(),
                                                     NextThreadScope(), node, thread_seed_));
}

ThreadContext& System::CreateSmtSibling(ThreadContext& sibling) {
  return AdoptThread(
      std::make_unique<ThreadContext>(config_, &backing_, mc_.get(), NextThreadScope(), &sibling));
}

Counters* System::NextThreadScope() {
  return registry_.CreateScope("thread" + std::to_string(threads_.size()));
}

ThreadContext& System::AdoptThread(std::unique_ptr<ThreadContext> thread) {
  thread->SetPersistObserver(persist_observer_);
  thread->SetAttribution(attribution_);
  if (trace_recorder_ != nullptr) {
    const uint32_t tid = static_cast<uint32_t>(threads_.size());
    trace_recorder_->DeclareThread(tid, thread->node());
    thread->SetTraceRecorder(trace_recorder_, tid);
  }
  threads_.push_back(std::move(thread));
  return *threads_.back();
}

void System::SetPersistObserver(PersistObserver* observer) {
  persist_observer_ = observer;
  mc_->SetPersistObserver(observer);
  for (auto& t : threads_) {
    t->SetPersistObserver(observer);
  }
}

void System::SetAttribution(AttributionCollector* collector) {
  attribution_ = collector;
  for (auto& t : threads_) {
    t->SetAttribution(collector);
  }
}

void System::SetTraceRecorder(TraceRecorder* recorder) {
  trace_recorder_ = recorder;
  for (uint32_t tid = 0; tid < threads_.size(); ++tid) {
    if (recorder != nullptr) {
      recorder->DeclareThread(tid, threads_[tid]->node());
    }
    threads_[tid]->SetTraceRecorder(recorder, tid);
  }
}

SampleGauges System::ReadGauges(Cycles now) {
  SampleGauges g;
  for (size_t i = 0; i < mc_->optane_dimm_count(); ++i) {
    g.wpq_occupancy += static_cast<double>(mc_->optane_wpq(i).OccupancyAt(now));
    g.read_buffer_entries += mc_->optane_dimm(i).read_buffer().occupied_entries();
    g.write_buffer_entries += mc_->optane_dimm(i).write_buffer().occupied_entries();
  }
  if (extra_gauges_) {
    extra_gauges_(now, &g);
  }
  return g;
}

void System::ResetMicroarchState() {
  mc_->Reset();
  l3_->Clear();
  for (auto& t : threads_) {
    t->ResetMicroarchState();
  }
}

}  // namespace pmemsim
