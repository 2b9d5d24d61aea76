// Manager-placement directory: who manages which DSM page, and this host's
// slice of manager-side state.
//
// The paper fixes page p's manager at host (p % N). That mapping is a
// per-page serialization point and a crash blast radius, so the directory
// now sits behind this class with three placements (SystemConfig::
// directory_mode):
//
//   kFixed    — the paper's p % N. Default; Tables 2–4 depend on it.
//   kSharded  — consistent-hash ring of N x directory_shards_per_host
//               virtual shards. Pure function of (num_hosts, shards), so
//               every host computes the same map with no coordination.
//   kDynamic  — sharded *base* map, but management may migrate toward the
//               last/dominant writer (Li's dynamic distributed managers).
//               The base manager is then only the page's well-known rally
//               point: old managers keep a forward pointer, requesters keep
//               a learned location, and recovery rebuilds from the base.
//
// A real deployment evaluates the base placement once per host. In this
// one-process simulator every host would derive the identical map, so it is
// evaluated once per System (Placement) and shared read-only by every host's
// Directory; lookups are bounds-checked.
//
// All mutable state here is guarded by the owning Host's state_mu_, exactly
// like the PageTable it was split from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
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
  Directory(const SystemConfig& cfg, net::HostId self,
            const Placement& placement);
  Directory(const SystemConfig& cfg, net::HostId self,
            const Placement&& placement) = delete;

  // --- static base placement (immutable; safe without locks) -------------
  net::HostId BaseManagerOf(PageNum p) const {
    return placement_.BaseManagerOf(p);
  }
  bool BaseManagedHere(PageNum p) const { return BaseManagerOf(p) == self_; }
  const Placement& placement() const { return placement_; }

  // --- this host's manager entries ----------------------------------------
  // Under kFixed/kSharded an entry exists iff BaseManagedHere(p); under
  // kDynamic entries follow migration.
  bool ManagedHere(PageNum p) const { return FindEntry(p) != nullptr; }
  ManagerEntry& Manager(PageNum p);       // CHECKs ManagedHere(p)
  ManagerEntry* FindManager(PageNum p) {  // nullptr when not managed here
    return const_cast<ManagerEntry*>(FindEntry(p));
  }
  ManagerEntry& AdoptManager(PageNum p);  // create (migration target)
  void EraseManager(PageNum p);           // drop (migration source)

  // Ascending page order: the base entries merged with the adopted ones.
  // `fn` must not adopt or erase entries.
  template <typename Fn>
  void ForEachManaged(Fn&& fn) {
    ForEachEntry(*this, fn);
  }
  template <typename Fn>
  void ForEachManaged(Fn&& fn) const {
    ForEachEntry(*this, fn);
  }
  std::vector<PageNum> ManagedPages() const;

  // --- requester-side routing ---------------------------------------------
  // Where to send a manager request for p: a learned (migrated) location if
  // one is known, else the base manager. Never returns a forward target —
  // forwards are served on the receive path.
  net::HostId ManagerTarget(PageNum p) const;
  void LearnManager(PageNum p, net::HostId mgr, std::uint32_t inc);
  void ForgetManager(PageNum p);
  // Drops every learned location naming h (reincarnation sweep); returns how
  // many were cleared.
  std::size_t ForgetManagersAt(net::HostId h);

  // --- forward pointers (kDynamic; source side of a finished migration) ---
  struct Forward {
    net::HostId to = 0;
    std::uint32_t inc = 0;  // to's incarnation when the migration completed
  };
  const Forward* ForwardOf(PageNum p) const;
  void SetForward(PageNum p, net::HostId to, std::uint32_t inc);
  void ClearForward(PageNum p);
  template <typename Fn>
  void ForEachForward(Fn&& fn) const {
    for (const auto& [p, f] : forwards_) fn(p, f);
  }

  // Crash-with-amnesia: entries return to *default* (unknown) state at the
  // base placement — recovery rebuilds them from survivor claims — and every
  // forward pointer and learned location is forgotten.
  void WipeForCrash();

  bool dynamic() const {
    return mode_ == SystemConfig::DirectoryMode::kDynamic;
  }

 private:
  const ManagerEntry* FindEntry(PageNum p) const;
  // ForEachManaged for a const or mutable Directory.
  template <typename Self, typename Fn>
  static void ForEachEntry(Self& self, Fn& fn) {
    const std::span<const PageNum> base = self.placement_.PagesOf(self.self_);
    auto adopted = self.adopted_.begin();
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (; adopted != self.adopted_.end() && adopted->first < base[i];
           ++adopted) {
        fn(adopted->first, adopted->second);
      }
      if (self.base_[i].has_value()) fn(base[i], *self.base_[i]);
    }
    for (; adopted != self.adopted_.end(); ++adopted) {
      fn(adopted->first, adopted->second);
    }
  }

  SystemConfig::DirectoryMode mode_;
  net::HostId self_;
  const Placement& placement_;
  // Entries of this host's base pages, indexed by RankOf(p); empty while
  // the page's management has migrated away (kDynamic).
  std::vector<std::optional<ManagerEntry>> base_;
  // Entries of other hosts' pages this host adopted (kDynamic).
  std::map<PageNum, ManagerEntry> adopted_;
  std::map<PageNum, Forward> forwards_;
  std::map<PageNum, std::pair<net::HostId, std::uint32_t>> learned_;
};

}  // namespace mermaid::dsm
