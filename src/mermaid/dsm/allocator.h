// Typed shared-memory allocator bookkeeping (§2.3).
//
// "A special memory allocating subroutine similar to malloc ... assigns the
// allocated memory to pages in such a way that a page contains data of only
// one type." This class is the pure bookkeeping: it lives on the
// coordinator host (host 0) and is driven by the allocation worker process;
// distribution of type tags to page managers happens in the host layer.
//
// Placement policy: each type bump-allocates within its current page run and
// starts a fresh page when an allocation does not fit — so a page only ever
// holds one type, and per-page allocated extents are tracked for the
// partial-transfer optimization. Allocations larger than a page span whole
// consecutive pages. Elements never straddle a page boundary unless the
// element itself is larger than a page (in which case conversion happens
// run-wise on the owning host — rejected here to keep the paper's
// one-to-one page mapping guarantee).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mermaid/arch/type_registry.h"
#include "mermaid/dsm/types.h"

namespace mermaid::dsm {

class Allocator {
 public:
  Allocator(const arch::TypeRegistry* registry, std::uint64_t region_bytes,
            std::uint32_t page_bytes);

  struct Result {
    GlobalAddr addr = 0;
    // Pages whose (type, alloc_bytes) changed and must be re-registered
    // with their managers.
    std::vector<PageNum> touched_pages;
  };

  // Allocates `count` elements of `type`; nullopt when the region is full
  // or the element size exceeds the page size.
  std::optional<Result> Alloc(arch::TypeId type, std::uint64_t count);

  arch::TypeId TypeOfPage(PageNum p) const;
  std::uint32_t AllocBytesOfPage(PageNum p) const;
  std::uint64_t bytes_used() const { return next_free_page_ * page_bytes_; }

  // Crash-recovery metadata replay: invokes fn(page, type, alloc_bytes) for
  // every page the allocator has assigned a type. Allocation bookkeeping is
  // modeled as durable (see DESIGN.md, "Failure model").
  template <typename Fn>
  void ForEachTypedPage(Fn&& fn) const {
    for (PageNum p = 0; p < pages_.size(); ++p) {
      const PageInfo& info = pages_[p];
      if (info.typed) fn(p, info.type, info.alloc_bytes);
    }
  }

 private:
  struct PageInfo {
    bool typed = false;  // some allocation covered the page
    arch::TypeId type = arch::TypeRegistry::kChar;
    std::uint32_t alloc_bytes = 0;
  };

  struct TypeRun {
    PageNum first_page = 0;
    PageNum page_count = 0;
    std::uint64_t used_in_run = 0;  // bytes bump-allocated in the run
  };

  const arch::TypeRegistry* registry_;
  std::uint64_t region_bytes_;
  std::uint32_t page_bytes_;
  PageNum next_free_page_ = 0;
  std::map<arch::TypeId, TypeRun> open_runs_;
  std::vector<PageInfo> pages_;  // indexed by page
};

}  // namespace mermaid::dsm
