#include "mermaid/base/zero_mapping.h"

#include <sys/mman.h>
#include <unistd.h>

#include "mermaid/base/check.h"

namespace mermaid::base {

namespace {

std::size_t OsPageBytes() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// Maps `bytes` of fresh zero pages, over `at` when it is not null. Huge
// pages are declined: one would give a frame to 2 MB of the mapping at its
// first write. (madvise fails harmlessly on a kernel without them.)
std::uint8_t* MapZeroPages(std::uint8_t* at, std::size_t bytes) {
  void* p = mmap(at, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | (at != nullptr ? MAP_FIXED : 0),
                 -1, 0);
  MERMAID_CHECK_MSG(p != MAP_FAILED && (at == nullptr || p == at),
                    "zero mapping mmap failed");
  madvise(p, bytes, MADV_NOHUGEPAGE);
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

ZeroMapping::ZeroMapping(std::size_t bytes) : size_(bytes) {
  const std::size_t page = OsPageBytes();
  usable_ = (bytes + page - 1) & ~(page - 1);
  base_ = MapZeroPages(nullptr, usable_ + page);
  MERMAID_CHECK(mprotect(base_ + usable_, page, PROT_NONE) == 0);
  data_ = base_ + usable_ - size_;
}

ZeroMapping::~ZeroMapping() { munmap(base_, usable_ + OsPageBytes()); }

void ZeroMapping::Wipe() {
  // Fresh pages mapped over the same range replace the old frames without
  // visiting them.
  if (usable_ != 0) MapZeroPages(base_, usable_);
}

}  // namespace mermaid::base
