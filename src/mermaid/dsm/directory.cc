#include "mermaid/dsm/directory.h"

#include <algorithm>

namespace mermaid::dsm {
namespace {

// splitmix64 finalizer: cheap, well-distributed, and a pure function — every
// host derives the identical ring from (num_hosts, shards_per_host) alone.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Decorrelate page keys from virtual-node keys.
std::uint64_t PageKey(PageNum p) {
  return Mix64(0xd1b54a32d192ed03ull ^ static_cast<std::uint64_t>(p));
}

}  // namespace

Placement::Placement(const SystemConfig& cfg, std::uint16_t num_hosts,
                     PageNum num_pages)
    : manager_(num_pages), first_(static_cast<std::size_t>(num_hosts) + 1, 0) {
  MERMAID_CHECK(num_hosts > 0);
  if (cfg.directory_mode == SystemConfig::DirectoryMode::kFixed) {
    for (PageNum p = 0; p < num_pages; ++p) {
      manager_[p] = static_cast<net::HostId>(p % num_hosts);
    }
  } else {
    // Consistent-hash ring: (hash, host), sorted by hash. Each page goes to
    // the first virtual shard clockwise of its key.
    const std::uint32_t shards = std::max<std::uint32_t>(
        1, cfg.directory_shards_per_host);
    std::vector<std::pair<std::uint64_t, std::uint16_t>> ring;
    ring.reserve(static_cast<std::size_t>(num_hosts) * shards);
    for (std::uint16_t h = 0; h < num_hosts; ++h) {
      for (std::uint32_t v = 0; v < shards; ++v) {
        ring.emplace_back(Mix64((static_cast<std::uint64_t>(h) << 32) | v), h);
      }
    }
    std::sort(ring.begin(), ring.end());
    for (PageNum p = 0; p < num_pages; ++p) {
      auto it = std::upper_bound(
          ring.begin(), ring.end(), PageKey(p),
          [](std::uint64_t k, const std::pair<std::uint64_t, std::uint16_t>& n) {
            return k < n.first;
          });
      if (it == ring.end()) it = ring.begin();  // wrap
      manager_[p] = static_cast<net::HostId>(it->second);
    }
  }
  // Group pages by manager; filling in page order keeps each run ascending.
  for (net::HostId h : manager_) ++first_[h + 1];
  for (std::size_t h = 1; h < first_.size(); ++h) first_[h] += first_[h - 1];
  pages_.resize(num_pages);
  rank_.resize(num_pages);
  std::vector<std::size_t> next(first_.begin(), first_.end() - 1);
  for (PageNum p = 0; p < num_pages; ++p) {
    const net::HostId h = manager_[p];
    rank_[p] = static_cast<std::uint32_t>(next[h] - first_[h]);
    pages_[next[h]++] = p;
  }
}

Directory::Directory(net::HostId self, const Placement& placement)
    : self_(self),
      placement_(placement),
      entries_(placement.PagesOf(self).size()) {
  // Initially the manager owns every page it manages, holding the
  // zero-filled read copy (the matching LocalPageEntry seeding lives in the
  // Host constructor).
  for (ManagerEntry& m : entries_) {
    m.owner = self_;
    m.copyset.insert(self_);
  }
}

}  // namespace mermaid::dsm
