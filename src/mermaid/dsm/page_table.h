// Per-host DSM page table.
//
// Each host keeps a LocalPageEntry per DSM page (its own copy's state).
// Matching the paper: "It uses a page table for the shared address space to
// maintain data consistency". The manager-side state (ManagerEntry, declared
// here because grants reference the same transfer types) is held by the
// Directory, which also decides which host manages which page.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <set>
#include <vector>

#include "mermaid/arch/type_registry.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/network.h"
#include "mermaid/net/reqrep.h"
#include "mermaid/sim/runtime.h"

namespace mermaid::dsm {

// This host's view of one DSM page. Every host keeps one per page of the
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

class PageTable {
 public:
  explicit PageTable(PageNum num_pages);

  LocalPageEntry& Local(PageNum p);
  const LocalPageEntry& Local(PageNum p) const;

  // Crash-with-amnesia: forgets every local copy. The matching manager-side
  // wipe lives in Directory::WipeForCrash.
  void WipeForCrash() {
    for (auto& e : local_) e = LocalPageEntry{};
  }

  PageNum num_pages() const { return static_cast<PageNum>(local_.size()); }

 private:
  std::vector<LocalPageEntry> local_;
};

}  // namespace mermaid::dsm
