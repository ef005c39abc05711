#include "src/common/backing_store.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/imc/memory_controller.h"

namespace pmemsim {

static_assert(BackingStore::kDramRadixBase == kDramAddressBase,
              "backing-store region split must match the address map");

BackingStore::Page* BackingStore::Radix::Find(uint64_t pageno) const {
  const uint64_t chunk = pageno >> kLeafBits;
  if (chunk >= root_.size() || !root_[chunk]) {
    return nullptr;
  }
  return root_[chunk]->pages[pageno & (kLeafSize - 1)].get();
}

BackingStore::Page& BackingStore::Radix::Ensure(uint64_t pageno, size_t* allocated) {
  const uint64_t chunk = pageno >> kLeafBits;
  if (chunk >= root_.size()) {
    root_.resize(chunk + 1);
  }
  if (!root_[chunk]) {
    root_[chunk] = std::make_unique<Leaf>();
  }
  std::unique_ptr<Page>& slot = root_[chunk]->pages[pageno & (kLeafSize - 1)];
  if (!slot) {
    slot = std::make_unique<Page>();  // value-initialized: zero-filled
    ++*allocated;
  }
  return *slot;
}

void BackingStore::Radix::Drop(uint64_t pageno, size_t* allocated) {
  const uint64_t chunk = pageno >> kLeafBits;
  if (chunk >= root_.size() || !root_[chunk]) {
    return;
  }
  std::unique_ptr<Page>& slot = root_[chunk]->pages[pageno & (kLeafSize - 1)];
  if (slot) {
    slot.reset();
    --*allocated;
  }
}

const BackingStore::Page* BackingStore::FindPage(Addr addr) const {
  const Addr base = PageBase(addr);
  if (base == cached_base_) {
    return cached_page_;
  }
  Page* page = RadixFor(addr).Find(PageNo(addr));
  if (page != nullptr) {
    cached_base_ = base;
    cached_page_ = page;
  }
  return page;
}

BackingStore::Page& BackingStore::EnsurePage(Addr addr) {
  const Addr base = PageBase(addr);
  if (base == cached_base_) {
    return *cached_page_;
  }
  Page& page = RadixFor(addr).Ensure(PageNo(addr), &allocated_);
  cached_base_ = base;
  cached_page_ = &page;
  return page;
}

void BackingStore::DropPage(Addr page_base) {
  if (page_base == cached_base_) {
    cached_base_ = kNoPage;
    cached_page_ = nullptr;
  }
  RadixFor(page_base).Drop(PageNo(page_base), &allocated_);
}

void BackingStore::Read(Addr addr, void* out, size_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    const uint64_t in_page = addr - PageBase(addr);
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(len, kPageSize - in_page));
    if (const Page* page = FindPage(addr)) {
      std::memcpy(dst, page->data() + in_page, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    dst += chunk;
    addr += chunk;
    len -= chunk;
  }
}

void BackingStore::Write(Addr addr, const void* data, size_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const uint64_t in_page = addr - PageBase(addr);
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(len, kPageSize - in_page));
    std::memcpy(EnsurePage(addr).data() + in_page, src, chunk);
    src += chunk;
    addr += chunk;
    len -= chunk;
  }
}

void BackingStore::PrefetchRead(Addr addr) const {
  const Addr base = PageBase(addr);
  const Page* page = base == cached_base_ ? cached_page_ : RadixFor(addr).Find(PageNo(addr));
  if (page != nullptr) {
    __builtin_prefetch(page->data() + (addr - base));
  }
}

uint64_t BackingStore::ReadU64(Addr addr) const {
  // Warm-page fast path: a compare and two array indexes (engine hot path —
  // every simulated load lands here for its data).
  const uint64_t in_page = addr & (kPageSize - 1);
  if (addr - in_page == cached_base_ && in_page <= kPageSize - sizeof(uint64_t)) {
    uint64_t v;
    std::memcpy(&v, cached_page_->data() + in_page, sizeof(v));
    return v;
  }
  uint64_t v = 0;
  Read(addr, &v, sizeof(v));
  return v;
}

void BackingStore::WriteU64(Addr addr, uint64_t value) {
  const uint64_t in_page = addr & (kPageSize - 1);
  if (addr - in_page == cached_base_ && in_page <= kPageSize - sizeof(uint64_t)) {
    std::memcpy(cached_page_->data() + in_page, &value, sizeof(value));
    return;
  }
  Write(addr, &value, sizeof(value));
}

void BackingStore::Zero(Addr addr, uint64_t len) {
  while (len > 0) {
    const uint64_t in_page = addr - PageBase(addr);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - in_page);
    if (in_page == 0 && chunk == kPageSize) {
      DropPage(addr);  // whole page: drop it; reads return zeros
    } else if (const Page* page = FindPage(addr)) {
      std::memset(const_cast<Page*>(page)->data() + in_page, 0, static_cast<size_t>(chunk));
    }
    addr += chunk;
    len -= chunk;
  }
}

}  // namespace pmemsim
