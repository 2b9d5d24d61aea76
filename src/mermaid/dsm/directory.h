// Manager-placement directory: who manages which DSM page, and this host's
// slice of manager-side state.
//
// The paper fixes page p's manager at host (p % N). That mapping is a
// per-page serialization point and a crash blast radius, so the directory
// now sits behind this class with two placements (SystemConfig::
// directory_mode):
//
//   kFixed    — the paper's p % N. Default; Tables 2–4 depend on it.
//   kSharded  — consistent-hash ring of N x directory_shards_per_host
//               virtual shards. Pure function of (num_hosts, shards), so
//               every host computes the same map with no coordination.
//
// Either way a page's manager never changes: each host holds one entry per
// page the placement gives it, for its whole life.
//
// A real deployment evaluates the placement once per host. In this
// one-process simulator every host would derive the identical map, so it is
// evaluated once per System (Placement) and shared read-only by every host's
// Directory; lookups are bounds-checked.
//
// All mutable state here is guarded by the owning Host's state_mu_, exactly
// like the PageTable it was split from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mermaid/base/check.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/network.h"

namespace mermaid::dsm {

// The immutable page -> base-manager map of one System, plus each host's
// base-managed pages in ascending order. Safe to read without locks.
class Placement {
 public:
  Placement(const SystemConfig& cfg, std::uint16_t num_hosts,
            PageNum num_pages);

  net::HostId BaseManagerOf(PageNum p) const {
    MERMAID_CHECK(p < manager_.size());
    return manager_[p];
  }
  // Host h's base-managed pages, ascending.
  std::span<const PageNum> PagesOf(net::HostId h) const {
    MERMAID_CHECK(h < num_hosts());
    return std::span<const PageNum>(pages_).subspan(
        first_[h], first_[h + 1] - first_[h]);
  }
  // p's index in PagesOf(BaseManagerOf(p)).
  std::uint32_t RankOf(PageNum p) const {
    MERMAID_CHECK(p < rank_.size());
    return rank_[p];
  }

  std::uint16_t num_hosts() const {
    return static_cast<std::uint16_t>(first_.size() - 1);
  }
  PageNum num_pages() const { return static_cast<PageNum>(manager_.size()); }

 private:
  std::vector<net::HostId> manager_;  // indexed by page
  // Pages grouped by base manager: host h's run is
  // pages_[first_[h], first_[h + 1]).
  std::vector<PageNum> pages_;
  std::vector<std::size_t> first_;
  std::vector<std::uint32_t> rank_;  // indexed by page
};

class Directory {
 public:
  // `placement` must outlive the Directory (System owns both).
  Directory(net::HostId self, const Placement& placement);
  Directory(net::HostId self, const Placement&& placement) = delete;

  // --- static placement (immutable; safe without locks) -------------------
  net::HostId BaseManagerOf(PageNum p) const {
    return placement_.BaseManagerOf(p);
  }
  bool BaseManagedHere(PageNum p) const { return BaseManagerOf(p) == self_; }
  const Placement& placement() const { return placement_; }

  // --- this host's manager entries: one per base-managed page -------------
  ManagerEntry& Manager(PageNum p) {  // CHECKs BaseManagedHere(p)
    MERMAID_CHECK(BaseManagedHere(p));
    return entries_[placement_.RankOf(p)];
  }
  // Ascending page order.
  template <typename Fn>
  void ForEachManaged(Fn&& fn) {
    const std::span<const PageNum> pages = placement_.PagesOf(self_);
    for (std::size_t i = 0; i < pages.size(); ++i) fn(pages[i], entries_[i]);
  }

  // Crash-with-amnesia: entries return to *default* (unknown) state —
  // recovery rebuilds them from survivor claims.
  void WipeForCrash() {
    for (ManagerEntry& m : entries_) m = ManagerEntry{};
  }

 private:
  net::HostId self_;
  const Placement& placement_;
  std::vector<ManagerEntry> entries_;  // indexed by RankOf(p)
};

}  // namespace mermaid::dsm
