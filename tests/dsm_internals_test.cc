// Unit tests of DSM internals: page-table role assignment, the coherence
// referee's violation detection, and host-level protocol robustness against
// malformed traffic.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/base/wire.h"
#include "mermaid/dsm/directory.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/referee.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace mermaid::dsm {
namespace {

TEST(Directory, FixedDistributedManagerAssignment) {
  SystemConfig cfg;  // directory_mode defaults to kFixed: the paper's p % N
  const Placement placement(cfg, /*num_hosts=*/3, /*num_pages=*/10);
  Directory dir(/*self=*/1, placement);
  for (PageNum p = 0; p < 10; ++p) {
    EXPECT_EQ(dir.BaseManagerOf(p), p % 3);
    EXPECT_EQ(dir.BaseManagedHere(p), p % 3 == 1);
  }
  // Local copies start unknown; the Host constructor seeds the manager's
  // initial read copies, not the bare table.
  PageTable pt(/*num_pages=*/10);
  EXPECT_EQ(pt.Local(1).access, Access::kNone);
  EXPECT_FALSE(pt.Local(1).owned);

  ManagerEntry& m = dir.Manager(4);
  EXPECT_EQ(m.owner, 1);
  EXPECT_EQ(m.copyset.size(), 1u);
  EXPECT_TRUE(m.copyset.count(1));
  EXPECT_FALSE(m.busy);
}

TEST(Directory, ForEachManagedVisitsExactlyOwnPages) {
  SystemConfig cfg;
  const Placement placement(cfg, /*num_hosts=*/4, /*num_pages=*/11);
  Directory dir(/*self=*/2, placement);
  std::vector<PageNum> visited;
  dir.ForEachManaged([&](PageNum p, ManagerEntry& m) {
    visited.push_back(p);
    EXPECT_EQ(&dir.Manager(p), &m) << "page " << p;
  });
  EXPECT_EQ(visited, (std::vector<PageNum>{2, 6, 10}));

  // A crash wipe keeps the same pages but returns every entry to the
  // default (unknown) state that recovery rebuilds from.
  dir.Manager(6).busy = true;
  dir.Manager(6).version = 3;
  dir.WipeForCrash();
  visited.clear();
  dir.ForEachManaged([&](PageNum p, ManagerEntry& m) {
    visited.push_back(p);
    EXPECT_EQ(m.owner, 0);
    EXPECT_TRUE(m.copyset.empty());
    EXPECT_FALSE(m.busy);
    EXPECT_EQ(m.version, 0u);
  });
  EXPECT_EQ(visited, (std::vector<PageNum>{2, 6, 10}));
}

// The const lookup reads any page, and a page whose chunk was never made
// reads as a default entry, without making one: scans and requests from
// the wire must not grow the table.
TEST(PageTable, ConstLookupAllocatesNothing) {
  const PageTable pt(/*num_pages=*/100);  // 6 full chunks and a partial one
  for (PageNum p = 0; p < pt.num_pages(); ++p) {
    const LocalPageEntry& e = pt.Local(p);
    EXPECT_EQ(e.version, 0u) << "page " << p;
    EXPECT_EQ(e.alloc_bytes, 0u) << "page " << p;
    EXPECT_EQ(e.type, arch::TypeRegistry::kChar) << "page " << p;
    EXPECT_EQ(e.access, Access::kNone) << "page " << p;
    EXPECT_FALSE(e.owned) << "page " << p;
    EXPECT_FALSE(e.retained) << "page " << p;
  }
  EXPECT_EQ(pt.ChunksInUse(), 0u);
}

// A crash wipe resets the chunks made so far in place: every entry goes
// back to the default and keeps its address, and no chunk is made or freed.
TEST(PageTable, WipeResetsInPlace) {
  PageTable pt(/*num_pages=*/100);
  const PageNum used[] = {0, 15, 16, 99};  // chunks 0, 1 and 6
  std::vector<const LocalPageEntry*> addrs;
  for (PageNum p : used) {
    LocalPageEntry& e = pt.Local(p);
    e.version = 7;
    e.alloc_bytes = 1024;
    e.type = arch::TypeRegistry::kInt;
    e.access = Access::kWrite;
    e.owned = true;
    e.retained = true;
    addrs.push_back(&e);
  }
  ASSERT_EQ(pt.ChunksInUse(), 3u);
  pt.WipeForCrash();
  EXPECT_EQ(pt.ChunksInUse(), 3u);
  for (std::size_t i = 0; i < std::size(used); ++i) {
    LocalPageEntry& e = pt.Local(used[i]);
    EXPECT_EQ(&e, addrs[i]) << "page " << used[i];
    EXPECT_EQ(e.version, 0u);
    EXPECT_EQ(e.alloc_bytes, 0u);
    EXPECT_EQ(e.type, arch::TypeRegistry::kChar);
    EXPECT_EQ(e.access, Access::kNone);
    EXPECT_FALSE(e.owned);
    EXPECT_FALSE(e.retained);
  }
}

TEST(Referee, AcceptsLegalSequence) {
  CoherenceReferee ref;
  ref.OnInstall(0, 5, 0, Access::kRead);   // initial owner copy
  ref.OnInstall(1, 5, 0, Access::kRead);   // replication
  ref.CheckAccess(1, 5, 0, Access::kRead);
  ref.OnInvalidate(0, 5);
  ref.OnWriteGrant(1, 5, 1);               // sole holder upgrades
  ref.CheckAccess(1, 5, 1, Access::kWrite);
  ref.OnDowngrade(1, 5);
  ref.OnInstall(0, 5, 1, Access::kRead);   // re-replicate at new version
  ref.CheckAccess(0, 5, 1, Access::kRead);
}

using RefereeDeath = CoherenceReferee;

TEST(Referee, DetectsTwoWriters) {
  ASSERT_DEATH(
      {
        CoherenceReferee ref;
        ref.OnInstall(0, 1, 0, Access::kRead);
        ref.OnWriteGrant(0, 1, 1);
        ref.OnInstall(1, 1, 1, Access::kRead);
        ref.OnWriteGrant(1, 1, 2);  // host 0 never dropped its write grant
      },
      "write granted while another host holds write access");
}

TEST(Referee, DetectsStaleAccess) {
  ASSERT_DEATH(
      {
        CoherenceReferee ref;
        ref.OnInstall(0, 1, 0, Access::kRead);
        ref.OnInstall(1, 1, 0, Access::kRead);
        ref.OnInvalidate(1, 1);
        ref.OnWriteGrant(0, 1, 1);
        ref.CheckAccess(1, 1, 0, Access::kRead);  // dropped copy
      },
      "access on a host without a valid copy");
}

TEST(Referee, DetectsWriteWithoutGrant) {
  ASSERT_DEATH(
      {
        CoherenceReferee ref;
        ref.OnInstall(0, 1, 0, Access::kRead);
        ref.OnInstall(1, 1, 0, Access::kRead);
        ref.CheckAccess(0, 1, 0, Access::kWrite);
      },
      "write access without the write grant");
}

// Robustness: spray malformed and misaddressed packets at a live system's
// hosts; the protocol must drop them (counting them) and keep working.
TEST(Robustness, GarbagePacketsAreDroppedNotFatal) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 128 * 1024;
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  sys.Start();

  // A rogue "host" 99 on the same network.
  auto rogue_rx = sys.network().Attach(99, &arch::Sun3Profile());
  (void)rogue_rx;

  sys.SpawnThread(0, "rogue-and-app", [&](Host& h) {
    base::Rng rng(13);
    for (int i = 0; i < 200; ++i) {
      net::Packet pkt;
      pkt.src = 99;
      pkt.dst = static_cast<net::HostId>(rng.NextBelow(2));
      pkt.kind = net::MsgKind::kControl;
      pkt.bytes.resize(rng.NextBelow(64) + 1);
      for (auto& b : pkt.bytes) b = static_cast<std::uint8_t>(rng.NextU64());
      sys.network().Send(std::move(pkt));
    }
    eng.Delay(Seconds(1));
    // The system still works after the garbage storm.
    GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt, 16);
    h.Write<std::int32_t>(a, 777);
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "reader", [&](Host& h) {
    sys.sync(1).EventWait(1);
    EXPECT_EQ(h.Read<std::int32_t>(0), 777);
  });
  eng.Run();
}

// Well-formed invalidate, owner-fetch and diff-flush requests naming one
// page past the region: each must be counted malformed and dropped, never
// used to index the page table, the manager map or the placement.
TEST(Robustness, OutOfRangePageFromTheWireIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;  // 64 one-KB Firefly pages
  cfg.release_consistency = true;  // diff flushes are served only under RC
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::FireflyProfile()});
  sys.Start();
  constexpr PageNum kPast = 64;

  sys.SpawnThread(1, "rogue", [&](Host& h) {
    base::WireWriter inv;
    inv.U32(kPast);
    h.endpoint().Notify(0, kOpInvalidate, std::move(inv).Take());

    base::WireWriter fetch;
    fetch.U8(kToOwner);
    fetch.U32(kPast);
    fetch.U64(1);  // op_id
    fetch.U64(1);  // new_version
    fetch.U8(1);   // data_needed
    fetch.U16(arch::TypeRegistry::kInt);
    fetch.U32(1024);  // alloc_bytes
    fetch.U16(0);     // no hosts to invalidate
    h.endpoint().Notify(0, kOpReadReq, std::move(fetch).Take());

    base::WireWriter diff;
    diff.U32(kPast);
    diff.U64(1);  // flush seq
    diff.U16(arch::TypeRegistry::kInt);
    diff.U8(arch::RepClassByte(h.profile()));
    diff.U16(1);  // one range: bytes [0, 4)
    diff.U32(0);
    diff.U32(4);
    diff.U32(0x01020304);
    h.endpoint().Notify(0, kOpDiffFlush, std::move(diff).Take());

    h.runtime().Delay(Seconds(1));
  });
  eng.Run();
  EXPECT_EQ(sys.host(0).stats().Count("dsm.malformed"), 3);
}

// A one-fragment packet from `src` carrying a request framed as an
// endpoint frames it (no incarnation stamp) that names `origin` as the
// host awaiting the reply.
net::Packet CraftRequest(net::HostId src, net::HostId dst,
                         net::HostId origin, std::uint64_t req_id,
                         std::uint8_t op,
                         const std::vector<std::uint8_t>& body) {
  base::WireWriter w;
  w.U64(req_id);  // fragment header: msg id, src, index, count, kind
  w.U16(src);
  w.U16(0);
  w.U16(1);
  w.U8(static_cast<std::uint8_t>(net::MsgKind::kControl));
  w.U8(1);  // reqrep framing: request, req id, origin, op
  w.U64(req_id);
  w.U16(origin);
  w.U8(op);
  w.Raw(body);
  net::Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.kind = net::MsgKind::kControl;
  pkt.bytes = std::move(w).Take();
  return pkt;
}

// The origin field of a request comes off the wire. One naming a host id
// nobody attached cannot be answered, so the endpoint must count it
// malformed and drop it before any handler runs: replying would route to
// the unknown id and abort the receiver.
TEST(Robustness, RequestFromUnattachedOriginIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  sys.Start();
  auto rogue_rx = sys.network().Attach(99, &arch::Sun3Profile());

  // A semaphore init: a request any host may send, so only the origin
  // decides whether it is answered.
  base::WireWriter sem_init;
  sem_init.U8(1);   // SemInit
  sem_init.U64(7);  // sync id
  sem_init.I64(0);  // initial count
  const std::vector<std::uint8_t> body = std::move(sem_init).Take();

  int replies_to_rogue = 0;
  std::int32_t seen = 0;
  sys.SpawnThread(0, "rogue-then-app", [&](Host& h) {
    bool timed_out = false;
    // Control: the same request naming the rogue itself is answered.
    sys.network().Send(CraftRequest(99, 0, 99, 1, kOpSync, body));
    if (rogue_rx.RecvUntil(h.runtime().Now() + Seconds(1), &timed_out)) {
      ++replies_to_rogue;
    }
    sys.network().Send(CraftRequest(99, 0, 500, 2, kOpSync, body));
    if (rogue_rx.RecvUntil(h.runtime().Now() + Seconds(1), &timed_out)) {
      ++replies_to_rogue;
    }
    // The host survived and still serves the protocol.
    const GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt, 16);
    h.Write<std::int32_t>(a, 4242);
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "reader", [&](Host& h) {
    sys.sync(1).EventWait(1);
    seen = h.Read<std::int32_t>(0);
  });
  eng.Run();
  EXPECT_EQ(replies_to_rogue, 1);
  EXPECT_EQ(seen, 4242);
  EXPECT_EQ(sys.host(0).endpoint().stats().Count("reqrep.malformed"), 1);
}

// A type-set decides how a page converts, so a manager takes one only from
// the allocator on host 0, and only whole. After a real Alloc of pages 0-1,
// rogue host 99 sends host 1 (the manager of page 1) eight forged batches.
// The first is well formed but names origin 99. The others forge origin 0
// and carry an unregistered type, no entry, a torn entry, a page past the
// region, a page host 1 does not manage, an extent over a page, and a good
// entry next to a bad one. Each must be counted and dropped unanswered, and
// the int the Sun writes must read back on the Firefly. Applied, the kShort
// retype would convert it as two shorts (4242 would read as 278003712), and
// the unregistered type would abort the next conversion.
TEST(Robustness, ForgedTypeSetIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;  // eight 8 KB pages
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  ASSERT_EQ(sys.page_bytes(), 8192u);
  sys.Start();
  auto rogue_rx = sys.network().Attach(99, &arch::Sun3Profile());

  using Entries = std::vector<std::pair<PageNum, std::uint32_t>>;
  const auto batch = [](arch::TypeId type, const Entries& entries) {
    base::WireWriter w;
    w.U16(type);
    for (const auto& [page, alloc_bytes] : entries) {
      w.U32(page);
      w.U32(alloc_bytes);
    }
    return std::move(w).Take();
  };
  constexpr arch::TypeId kShort = arch::TypeRegistry::kShort;
  std::vector<std::uint8_t> torn = batch(kShort, {{1, 8192}});
  torn.insert(torn.end(), {0, 0, 0});
  const std::pair<net::HostId, std::vector<std::uint8_t>> forged[] = {
      {99, batch(kShort, {{1, 8192}})},
      {0, batch(0x7777, {{1, 8192}})},
      {0, batch(kShort, {})},
      {0, torn},
      {0, batch(kShort, {{8, 8192}})},
      {0, batch(kShort, {{0, 8192}})},
      {0, batch(kShort, {{1, 8193}})},
      {0, batch(kShort, {{1, 8192}, {3, 8193}})},
  };

  std::int32_t seen = 0;
  sys.SpawnThread(0, "allocator-then-rogue", [&](Host& h) {
    const GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt, 2 * 8192 / 4);
    ASSERT_EQ(a, 0u);
    std::uint64_t req_id = 0;
    for (const auto& [origin, body] : forged) {
      sys.network().Send(CraftRequest(99, 1, origin, ++req_id, kOpTypeSet,
                                      body));
    }
    h.runtime().Delay(Seconds(1));
    h.Write<std::int32_t>(8192, 4242);  // page 1, converted Firefly -> Sun
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "reader", [&](Host& h) {
    sys.sync(1).EventWait(1);
    seen = h.Read<std::int32_t>(8192);  // converted Sun -> Firefly
  });
  eng.Run();
  EXPECT_EQ(seen, 4242);
  EXPECT_EQ(sys.host(1).stats().Count("dsm.malformed"), 8);
  // Host 1's only type-set message is its ack of the allocator's batch.
  EXPECT_EQ(sys.host(1).endpoint().stats().Count("reqrep.tx_msgs.type_set"),
            1);
  EXPECT_FALSE(rogue_rx.TryRecv().has_value());
}

// The central server's bounds test takes a u64 address off the wire. An
// address near 2^64 must fail it rather than wrap past it: the forged read
// would reply with bytes from before the image, and the forged write would
// scribble there. Both are counted malformed and get no reply; the server
// then still serves host 1.
TEST(Robustness, CentralAddressWrapIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  sys.Start();
  constexpr GlobalAddr kWrapping = ~GlobalAddr{0} - 7;  // 2^64 - 8
  std::vector<net::CallStatus> forged;
  std::int32_t round_trip = 0;
  sys.SpawnThread(1, "rogue-then-client", [&](Host& h) {
    net::Endpoint::CallOpts once;
    once.timeout = Seconds(1);
    once.max_attempts = 1;
    base::WireWriter rd;
    rd.U64(kWrapping);
    rd.U32(16);
    forged.push_back(h.endpoint()
                         .CallWithStatus(0, kOpCentralRead,
                                         std::move(rd).Take(),
                                         net::MsgKind::kControl, once)
                         .status);
    base::WireWriter wr;
    wr.U64(kWrapping);
    wr.Raw(std::vector<std::uint8_t>(16, 0xAB));
    forged.push_back(h.endpoint()
                         .CallWithStatus(0, kOpCentralWrite,
                                         std::move(wr).Take(),
                                         net::MsgKind::kControl, once)
                         .status);
    CentralClient& cc = sys.central(h.id());
    cc.Write<std::int32_t>(64 * 1024 - 4, -4242);  // the region's last word
    round_trip = cc.Read<std::int32_t>(64 * 1024 - 4);
  });
  eng.Run();
  EXPECT_EQ(forged, (std::vector<net::CallStatus>{net::CallStatus::kTimedOut,
                                                  net::CallStatus::kTimedOut}));
  EXPECT_EQ(sys.central_server().stats().Count("central.malformed"), 2);
  EXPECT_EQ(round_trip, -4242);
  EXPECT_EQ(sys.central_server().stats().Count("central.writes"), 1);
  EXPECT_EQ(sys.central_server().stats().Count("central.reads"), 1);
}

// A transfer request whose role byte is neither kToManager nor kToOwner
// must be counted malformed and dropped: no reply, and no grant from the
// page's manager. Role 2 is an unassigned value; 0xFF is plain garbage.
TEST(Robustness, UnknownTransferRoleIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::FireflyProfile()});
  sys.Start();

  std::vector<net::CallStatus> statuses;
  sys.SpawnThread(1, "rogue", [&](Host& h) {
    for (const std::uint8_t role : {std::uint8_t{2}, std::uint8_t{0xFF}}) {
      for (const std::uint8_t op : {kOpReadReq, kOpWriteReq}) {
        base::WireWriter w;
        w.U8(role);
        w.U32(0);  // page 0, managed (and owned) by host 0
        w.U8(0);   // has_copy
        net::Endpoint::CallOpts opts;
        opts.timeout = Milliseconds(100);
        opts.max_attempts = 1;
        statuses.push_back(h.endpoint()
                               .CallWithStatus(0, op, std::move(w).Take(),
                                               net::MsgKind::kControl, opts)
                               .status);
      }
    }
  });
  eng.Run();
  ASSERT_EQ(statuses.size(), 4u);
  for (const net::CallStatus s : statuses) {
    EXPECT_EQ(s, net::CallStatus::kTimedOut) << "a bad role got a reply";
  }
  EXPECT_EQ(sys.host(0).ManagerGrantsTotal(), 0u);
  EXPECT_EQ(sys.host(0).stats().Count("dsm.malformed"), 4);
}

// Opcodes 11-15 and 20 are unassigned. A request carrying one must reach no
// handler: the endpoint counts it and drops it without a reply, and the
// host keeps serving the protocol.
TEST(Robustness, UnassignedOpcodesAreDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::FireflyProfile()});
  sys.Start();

  std::vector<net::CallStatus> statuses;
  GlobalAddr addr = 0;
  std::int32_t seen = 0;
  sys.SpawnThread(1, "rogue-then-app", [&](Host& h) {
    for (const std::uint8_t op : {11, 12, 13, 14, 15, 20}) {
      base::WireWriter w;
      w.U32(0);  // page 0, managed by host 0
      net::Endpoint::CallOpts opts;
      opts.timeout = Milliseconds(100);
      opts.max_attempts = 1;
      statuses.push_back(h.endpoint()
                             .CallWithStatus(0, op, std::move(w).Take(),
                                             net::MsgKind::kControl, opts)
                             .status);
    }
    addr = sys.Alloc(1, arch::TypeRegistry::kInt, 16);
    h.Write<std::int32_t>(addr, 2020);
    sys.sync(1).EventSet(1);
  });
  sys.SpawnThread(0, "reader", [&](Host& h) {
    sys.sync(0).EventWait(1);
    seen = h.Read<std::int32_t>(addr);
  });
  eng.Run();
  ASSERT_EQ(statuses.size(), 6u);
  for (const net::CallStatus s : statuses) {
    EXPECT_EQ(s, net::CallStatus::kTimedOut)
        << "an unassigned opcode got a reply";
  }
  EXPECT_EQ(sys.host(0).endpoint().stats().Count("reqrep.unhandled_ops"), 6);
  EXPECT_EQ(sys.host(0).stats().Count("dsm.malformed"), 0);
  EXPECT_EQ(seen, 2020);
}

// A confirm commits only the grant of the host that sends it. While host
// 1's write fault holds page 0's grant (its invalidation of host 2's copy
// waits on a dropped ack), host 3 confirms op ids 1-4 three times over:
// naming host 2, a lie about the sender; naming itself, which matches the
// sender but not the grant; and naming host 1, the real requester, a lie
// that would commit the grant before host 1 is done. Each must be dropped,
// and the write must still complete.
TEST(Robustness, ConfirmNamingAnotherRequesterIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg,
             {&arch::FireflyProfile(), &arch::FireflyProfile(),
              &arch::FireflyProfile(), &arch::FireflyProfile()});
  net::FaultPlan plan;
  net::FaultPlan::DropRule ack;  // copy holder 2 -> writer 1
  ack.src = 2;
  ack.dst = 1;
  ack.until = Seconds(5);
  plan.drops.push_back(ack);
  sys.network().SetFaultPlan(plan);
  sys.Start();

  GlobalAddr addr = 0, later = 0;
  std::uint64_t busy_when_sent = 0;
  std::int32_t seen_by_2 = 0, seen_after = 0, seen_later = 0;
  sys.SpawnThread(0, "allocator", [&](Host& h) {
    addr = sys.Alloc(0, arch::TypeRegistry::kInt, 16);  // page 0, host 0's
    h.Write<std::int32_t>(addr, 1);
    sys.sync(0).EventSet(1);
    sys.sync(0).EventWait(4);
    seen_later = h.Read<std::int32_t>(later);
  });
  sys.SpawnThread(2, "reader", [&](Host& h) {
    sys.sync(2).EventWait(1);
    seen_by_2 = h.Read<std::int32_t>(addr);
    sys.sync(2).EventSet(2);
  });
  sys.SpawnThread(1, "writer", [&](Host& h) {
    sys.sync(1).EventWait(2);
    h.Write<std::int32_t>(addr, 2);
    sys.sync(1).EventSet(3);
  });
  sys.SpawnThread(3, "rogue-then-app", [&](Host& h) {
    sys.sync(3).EventWait(2);
    std::uint64_t busy = 0, pending = 0;
    while (busy == 0) {
      h.runtime().Delay(Milliseconds(1));
      sys.host(0).CountManagerLoad(&busy, &pending);
    }
    busy_when_sent = busy;
    for (const net::HostId named : {2, 3, 1}) {
      for (std::uint64_t op_id = 1; op_id <= 4; ++op_id) {
        base::WireWriter w;
        w.U32(0);  // page 0
        w.U64(op_id);
        w.U16(named);
        w.U8(1);  // is_write
        h.endpoint().Notify(0, kOpConfirm, std::move(w).Take());
      }
    }
    sys.sync(3).EventWait(3);
    seen_after = h.Read<std::int32_t>(addr);
    later = sys.Alloc(3, arch::TypeRegistry::kInt, 16);
    h.Write<std::int32_t>(later, 3030);
    sys.sync(3).EventSet(4);
  });
  eng.Run();
  EXPECT_EQ(busy_when_sent, 1u);
  EXPECT_EQ(seen_by_2, 1);
  EXPECT_EQ(seen_after, 2);
  EXPECT_EQ(seen_later, 3030);
  // 8 lies about the sender, plus host 3's own-id confirm of the busy op.
  EXPECT_EQ(sys.host(0).stats().Count("dsm.malformed"), 9);
  // Host 3's own-id confirms of the three idle op ids are merely stale.
  EXPECT_EQ(sys.host(0).stats().Count("dsm.stale_confirms"), 3);
  std::uint64_t busy = 0, pending = 0;
  for (net::HostId i = 0; i < 4; ++i) {
    sys.host(i).CountManagerLoad(&busy, &pending);
  }
  EXPECT_EQ(busy, 0u);
}

// Sync requests carry subops 1-7 (SemInit .. Barrier). One with a subop
// outside that range, just below or just above it, must be counted and
// dropped without a reply, and the sync server must keep working.
TEST(Robustness, UnknownSyncSubopIsDropped) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::FireflyProfile()});
  sys.Start();

  std::vector<net::CallStatus> statuses;
  bool sem_round_trip = false;
  sys.SpawnThread(1, "rogue-then-app", [&](Host& h) {
    for (const std::uint8_t subop : {0, 8}) {
      base::WireWriter w;
      w.U8(subop);
      w.U64(7);  // sync id
      w.I64(0);  // arg
      net::Endpoint::CallOpts opts;
      opts.timeout = Milliseconds(100);
      opts.max_attempts = 1;
      statuses.push_back(h.endpoint()
                             .CallWithStatus(0, kOpSync, std::move(w).Take(),
                                             net::MsgKind::kControl, opts)
                             .status);
    }
    sys.sync(1).SemInit(7, 0);
    sys.sync(1).V(7);
    sys.sync(1).P(7);
    sem_round_trip = true;
  });
  eng.Run();
  ASSERT_EQ(statuses.size(), 2u);
  for (const net::CallStatus s : statuses) {
    EXPECT_EQ(s, net::CallStatus::kTimedOut) << "a bad subop got a reply";
  }
  EXPECT_EQ(sys.GatherStats().Count("sync.malformed"), 2);
  EXPECT_TRUE(sem_round_trip);
}

// A reply completes the call whose req_id it carries, whoever sent it. So
// while a drop rule holds back the real fetch reply, a rogue host (99)
// answers host 1's pending fault call, in four rounds of two faults: a read
// of page 0, whose manager is host 0, then one of page 1, which host 1
// manages and host 0 owns. The rogue's reply is five bytes of a fetch
// reply's 40-byte head in round 0. In rounds 1-3 it is a whole reply that
// lies: three pages of data, owner 500 (never attached), and the
// unregistered type 0x7777, each with data in a foreign representation.
// Every fault must count the bad reply, drop it and refault to the right
// value, leaving no grant busy.
TEST(Robustness, MalformedFetchReplyIsDroppedNotFatal) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::FireflyProfile()});
  constexpr int kRounds = 4;
  const auto at = [](int round, SimTime t) { return Seconds(10) * round + t; };
  net::FaultPlan plan;
  for (int round = 0; round < kRounds; ++round) {
    net::FaultPlan::DropRule remote;  // page 0's reply, manager and owner 0
    remote.src = 0;
    remote.dst = 1;
    remote.kind = net::MsgKind::kData;
    remote.from = at(round, Seconds(5));
    remote.until = at(round, Milliseconds(5500));
    net::FaultPlan::DropRule local = remote;  // page 1's reply, owner 0
    local.from = at(round, Seconds(10));
    local.until = at(round, Milliseconds(10150));
    plan.drops.push_back(remote);
    plan.drops.push_back(local);
  }
  sys.network().SetFaultPlan(plan);
  sys.Start();
  auto rogue_rx = sys.network().Attach(99, &arch::FireflyProfile());

  // Round r's fetch reply body; round 0's is the truncated head.
  const auto lie = [&](int round) {
    base::WireWriter w;
    if (round == 0) {
      w.U32(0);
      w.U8(0);
      return std::move(w).Take();
    }
    w.U64(1);                                        // op_id
    w.U64(0);                                        // data_version
    w.U64(1);                                        // new_version
    w.U16(round == 2 ? 500 : 0);                     // owner
    w.U16(round == 3 ? 0x7777 : arch::TypeRegistry::kInt);  // type
    w.U32(sys.page_bytes());                         // alloc_bytes
    w.U16(0);                                        // no hosts to invalidate
    w.U8(1);                                         // has_data
    w.U8(arch::RepClassByte(arch::Sun3Profile()));   // foreign data
    w.U8(0);                                         // flags
    w.Raw(std::vector<std::uint8_t>((round == 1 ? 3 : 1) * sys.page_bytes()));
    return std::move(w).Take();
  };

  const GlobalAddr page1 = sys.page_bytes();
  std::int32_t seen0[kRounds] = {}, seen1[kRounds] = {};
  sys.SpawnThread(0, "owner", [&](Host& h) {
    const GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt,
                                   2 * sys.page_bytes() / 4);
    ASSERT_EQ(a, 0u);
    for (int round = 0; round < kRounds; ++round) {
      // Takes both pages back, so the reader faults on them again.
      h.runtime().Delay(at(round, Seconds(1)) - h.runtime().Now());
      h.Write<std::int32_t>(0, 100 * round + 11);
      h.Write<std::int32_t>(page1, 100 * round + 22);
    }
  });
  sys.SpawnThread(1, "reader", [&](Host& h) {
    for (int round = 0; round < kRounds; ++round) {
      h.runtime().Delay(at(round, Seconds(5)) - h.runtime().Now());
      seen0[round] = h.Read<std::int32_t>(0);
      h.runtime().Delay(at(round, Seconds(10)) - h.runtime().Now());
      seen1[round] = h.Read<std::int32_t>(page1);
    }
  });
  eng.Spawn("rogue", [&] {
    net::Fragmenter rogue(eng, sys.network(), 99);
    for (int round = 0; round < kRounds; ++round) {
      for (const SimTime t : {Milliseconds(5500), Milliseconds(10150)}) {
        eng.Delay(at(round, t) - eng.Now());
        // Host 1's only thread is blocked in its fault call, which holds
        // the newest of its req_ids (they count up from 1, one per request).
        const auto req_id = static_cast<std::uint64_t>(
            sys.host(1).endpoint().stats().Count("reqrep.requests_sent"));
        base::WireWriter w;
        w.U8(2);  // reqrep framing: reply, req_id
        w.U64(req_id);
        w.Raw(lie(round));
        net::Message m;
        m.src = 99;
        m.dst = 1;
        m.payload = std::move(w).Take();
        rogue.Send(std::move(m));
      }
    }
  });
  eng.Run();
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(seen0[round], 100 * round + 11) << "round " << round;
    EXPECT_EQ(seen1[round], 100 * round + 22) << "round " << round;
  }
  EXPECT_EQ(sys.host(1).stats().Count("dsm.malformed"), 2 * kRounds);
  EXPECT_EQ(sys.network().stats().Count("net.rule_dropped"), 2 * kRounds);
  std::uint64_t busy = 0, pending = 0;
  for (net::HostId i = 0; i < 2; ++i) {
    sys.host(i).CountManagerLoad(&busy, &pending);
  }
  EXPECT_EQ(busy, 0u);
  EXPECT_EQ(pending, 0u);
  (void)rogue_rx;
}

// Region-boundary behavior: a fault group near the end of the region stops
// at the last page instead of running past it.
TEST(Robustness, FaultGroupClampsAtRegionEnd) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 16 * 1024;  // two 8 KB pages
  cfg.page_policy = PageSizePolicy::kSmallest;
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::Sun3Profile()});
  ASSERT_EQ(sys.page_bytes(), 1024u);
  sys.Start();
  sys.SpawnThread(0, "writer", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt, 4096);  // 16 KB
    h.Write<std::int32_t>(a + 16 * 1024 - 4, 5);
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "sun", [&](Host& h) {
    sys.sync(1).EventWait(1);
    // The Sun's 8 KB VM page covers DSM pages 8..15; the last access sits
    // at the very end of the region, and the group must not run past it.
    EXPECT_EQ(h.Read<std::int32_t>(16 * 1024 - 4), 5);
    // Of the eight subpages, the Sun already holds read copies of the ones
    // it manages and still owns (9, 11, 13); 15 was stolen by the writer.
    EXPECT_EQ(sys.host(1).stats().Count("dsm.read_faults"), 5);
  });
  eng.Run();
}

}  // namespace
}  // namespace mermaid::dsm
