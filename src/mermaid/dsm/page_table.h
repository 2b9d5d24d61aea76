// Per-host DSM page table.
//
// Each host keeps a LocalPageEntry per DSM page (its own copy's state).
// Matching the paper: "It uses a page table for the shared address space to
// maintain data consistency". The manager-side state (ManagerEntry, declared
// here because grants reference the same transfer types) is held by the
// Directory, which also decides which host manages which page.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "mermaid/arch/type_registry.h"
#include "mermaid/base/check.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/network.h"
#include "mermaid/net/reqrep.h"
#include "mermaid/sim/runtime.h"

namespace mermaid::dsm {

// This host's view of one DSM page. A host can address every page of the
// region, so the fields are packed into 16 bytes.
struct LocalPageEntry {
  std::uint64_t version = 0;
  std::uint32_t alloc_bytes = 0;  // allocated extent (partial transfer)
  arch::TypeId type = arch::TypeRegistry::kChar;
  Access access = Access::kNone;
  bool owned : 1 = false;
  // Set when this host relinquished the page in a write transfer that has
  // not been confirmed: the bytes in memory are still the pre-transfer image
  // at `version`, legal to serve again if the manager revokes that grant and
  // names this host as the data source once more. Cleared by any install,
  // upgrade, or invalidation.
  bool retained : 1 = false;
};
static_assert(sizeof(LocalPageEntry) == 16);

// A transfer request waiting its turn at the manager: either a remote
// request (reply via the protocol) or a fault by a thread on the manager
// host itself (grant via a channel).
struct ManagerGrant {
  net::HostId owner = 0;
  std::uint64_t op_id = 0;
  std::uint64_t new_version = 0;
  std::vector<net::HostId> to_invalidate;
  bool requester_has_copy = false;
  arch::TypeId type = arch::TypeRegistry::kChar;
  std::uint32_t alloc_bytes = 0;
};

struct PendingTransfer {
  bool is_write = false;
  // The requester's own claim of holding a valid copy. The grant's
  // "no data needed" decision requires this AND copyset membership: after a
  // revoked write grant the copyset can retain phantom members whose copies
  // the vanished writer already invalidated.
  bool has_copy = false;
  net::HostId requester = 0;
  std::optional<net::RequestContext> remote;   // remote requester
  sim::Chan<ManagerGrant> local_grant;         // local requester
};

// Manager-side state for one managed page. The manager is the authority for
// the page's type and allocated extent (set by the allocation worker before
// any application can learn the addresses), so grants always carry current
// values even if the owner's copy predates an extent growth.
struct ManagerEntry {
  net::HostId owner = 0;
  std::set<net::HostId> copyset;  // hosts with a valid copy (incl. owner)
  bool busy = false;
  std::uint64_t version = 0;
  arch::TypeId type = arch::TypeRegistry::kChar;
  std::uint32_t alloc_bytes = 0;
  // The in-flight transfer, for confirm matching and probe recovery.
  std::uint64_t busy_op_id = 0;
  net::HostId busy_requester = 0;
  bool busy_is_write = false;
  std::uint64_t busy_new_version = 0;
  SimTime busy_since = 0;
  // FIFO of waiting transfers. A list allocates nothing while empty, and
  // nearly every entry's queue stays empty.
  std::list<PendingTransfer> pending;
};

// This host's entries, in 16-entry chunks (256 B) that exist only once the
// host uses one of their pages: a host pays for the pages it manages (the
// Host constructor seeds those) and the pages it touches, not for the whole
// region. A chunk, once made, lives as long as the table, so an entry
// reference stays valid for the table's lifetime, a crash wipe included.
// Guarded by the owning Host's state_mu_.
class PageTable {
 public:
  static constexpr PageNum kChunkPages = 16;

  explicit PageTable(PageNum num_pages);

  // p's entry; makes p's chunk on first use. The typed accessors call this
  // two or three times per access, so it is inline.
  LocalPageEntry& Local(PageNum p) {
    MERMAID_CHECK(p < num_pages_);
    std::unique_ptr<Chunk>& c = chunks_[p / kChunkPages];
    if (c == nullptr) c = std::make_unique<Chunk>();
    return (*c)[p % kChunkPages];
  }
  // p's entry, or a default one when p's chunk was never made. Allocates
  // nothing, so a scan or a request from the wire can read any page.
  const LocalPageEntry& Local(PageNum p) const {
    MERMAID_CHECK(p < num_pages_);
    const Chunk* c = chunks_[p / kChunkPages].get();
    return c == nullptr ? kAbsent : (*c)[p % kChunkPages];
  }

  // Calls fn(p, entry) for every page of every chunk made so far, in
  // ascending page order. The pages it skips hold default entries.
  template <typename Fn>
  void ForEachInUse(Fn&& fn) {
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (chunks_[i] == nullptr) continue;
      const auto first = static_cast<PageNum>(i * kChunkPages);
      for (PageNum k = 0; k < kChunkPages && first + k < num_pages_; ++k) {
        fn(first + k, (*chunks_[i])[k]);
      }
    }
  }

  // Crash-with-amnesia: forgets every local copy. Chunks are reset in place
  // and kept. The matching manager-side wipe lives in
  // Directory::WipeForCrash.
  void WipeForCrash() {
    for (auto& c : chunks_) {
      if (c != nullptr) c->fill(LocalPageEntry{});
    }
  }

  PageNum num_pages() const { return num_pages_; }
  // Chunks made so far (a test hook).
  std::size_t ChunksInUse() const;

 private:
  using Chunk = std::array<LocalPageEntry, kChunkPages>;
  static constexpr LocalPageEntry kAbsent{};

  PageNum num_pages_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // by p / kChunkPages
};

}  // namespace mermaid::dsm
