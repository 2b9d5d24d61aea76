#include "mermaid/dsm/page_table.h"

#include "mermaid/base/check.h"

namespace mermaid::dsm {

PageTable::PageTable(PageNum num_pages) : local_(num_pages) {}

LocalPageEntry& PageTable::Local(PageNum p) {
  MERMAID_CHECK(p < local_.size());
  return local_[p];
}

const LocalPageEntry& PageTable::Local(PageNum p) const {
  MERMAID_CHECK(p < local_.size());
  return local_[p];
}

}  // namespace mermaid::dsm
