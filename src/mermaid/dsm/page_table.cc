#include "mermaid/dsm/page_table.h"

#include <algorithm>

namespace mermaid::dsm {

PageTable::PageTable(PageNum num_pages)
    : num_pages_(num_pages),
      chunks_((static_cast<std::size_t>(num_pages) + kChunkPages - 1) /
              kChunkPages) {}

std::size_t PageTable::ChunksInUse() const {
  return static_cast<std::size_t>(std::count_if(
      chunks_.begin(), chunks_.end(),
      [](const std::unique_ptr<Chunk>& c) { return c != nullptr; }));
}

}  // namespace mermaid::dsm
