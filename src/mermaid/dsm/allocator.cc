#include "mermaid/dsm/allocator.h"

#include <bit>

#include "mermaid/base/check.h"

namespace mermaid::dsm {

Allocator::Allocator(const arch::TypeRegistry* registry,
                     std::uint64_t region_bytes, std::uint32_t page_bytes)
    : registry_(registry),
      region_bytes_(region_bytes),
      page_bytes_(page_bytes) {
  MERMAID_CHECK(registry != nullptr);
  MERMAID_CHECK(page_bytes > 0 && (page_bytes & (page_bytes - 1)) == 0);
  MERMAID_CHECK(region_bytes % page_bytes == 0);
  pages_.resize(region_bytes / page_bytes);
}

std::optional<Allocator::Result> Allocator::Alloc(arch::TypeId type,
                                                  std::uint64_t count) {
  if (!registry_->IsValid(type) || count == 0) return std::nullopt;
  // Element stride is the size rounded to a power of two, so that elements
  // never straddle a page boundary (pages are powers of two). The padding is
  // the fragmentation cost §2.3 acknowledges.
  const std::uint64_t elem = registry_->SizeOf(type);
  const std::uint64_t stride = std::bit_ceil(elem);
  if (stride > page_bytes_) return std::nullopt;  // multi-page elements: no

  const std::uint64_t bytes = count * stride;
  Result result;

  TypeRun* run = nullptr;
  auto it = open_runs_.find(type);
  if (it != open_runs_.end()) {
    const std::uint64_t run_end =
        (static_cast<std::uint64_t>(it->second.first_page) +
         it->second.page_count) *
        page_bytes_;
    const std::uint64_t next_addr =
        static_cast<std::uint64_t>(it->second.first_page) * page_bytes_ +
        it->second.used_in_run;
    if (run_end - next_addr >= bytes) run = &it->second;
  }
  if (run == nullptr) {
    // Open a fresh run of whole pages for this type.
    const PageNum pages_needed = static_cast<PageNum>(
        (bytes + page_bytes_ - 1) / page_bytes_);
    const std::uint64_t start =
        static_cast<std::uint64_t>(next_free_page_) * page_bytes_;
    if (start + static_cast<std::uint64_t>(pages_needed) * page_bytes_ >
        region_bytes_) {
      return std::nullopt;  // region exhausted
    }
    TypeRun fresh;
    fresh.first_page = next_free_page_;
    fresh.page_count = pages_needed;
    fresh.used_in_run = 0;
    next_free_page_ += pages_needed;
    run = &(open_runs_[type] = fresh);
  }

  const std::uint64_t base =
      static_cast<std::uint64_t>(run->first_page) * page_bytes_;
  result.addr = base + run->used_in_run;
  run->used_in_run += bytes;

  // Record per-page type and allocated extent over the newly covered range.
  const PageNum first = static_cast<PageNum>(result.addr / page_bytes_);
  const PageNum last =
      static_cast<PageNum>((result.addr + bytes - 1) / page_bytes_);
  for (PageNum p = first; p <= last; ++p) {
    PageInfo& info = pages_[p];
    info.typed = true;
    info.type = type;
    const std::uint64_t page_start =
        static_cast<std::uint64_t>(p) * page_bytes_;
    const std::uint64_t end_in_page =
        std::min<std::uint64_t>(result.addr + bytes - page_start,
                                page_bytes_);
    if (end_in_page > info.alloc_bytes) {
      info.alloc_bytes = static_cast<std::uint32_t>(end_in_page);
      result.touched_pages.push_back(p);
    }
  }
  return result;
}

arch::TypeId Allocator::TypeOfPage(PageNum p) const {
  return p < pages_.size() ? pages_[p].type : arch::TypeRegistry::kChar;
}

std::uint32_t Allocator::AllocBytesOfPage(PageNum p) const {
  return p < pages_.size() ? pages_[p].alloc_bytes : 0;
}

}  // namespace mermaid::dsm
