#include "mermaid/dsm/central.h"

#include <algorithm>
#include <vector>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Per-request stat keys, resolved once (see base::StatKey).
const base::StatKey kMalformed("central.malformed");
const base::StatKey kReads("central.reads");
const base::StatKey kWrites("central.writes");

}  // namespace

CentralServer::CentralServer(sim::Runtime& rt,
                             const arch::ArchProfile* profile,
                             std::uint64_t region_bytes)
    : rt_(rt), profile_(profile), mem_(region_bytes) {
  MERMAID_CHECK(profile != nullptr);
}

void CentralServer::Attach(net::Endpoint& ep) {
  ep.SetHandler(kOpCentralRead,
                [this](net::RequestContext ctx) { HandleRead(std::move(ctx)); });
  ep.SetHandler(kOpCentralWrite, [this](net::RequestContext ctx) {
    HandleWrite(std::move(ctx));
  });
}

void CentralServer::ReadBytes(GlobalAddr addr, std::span<std::uint8_t> out) {
  std::lock_guard<std::mutex> lk(mu_);
  MERMAID_CHECK(InRegion(addr, out.size()));
  std::copy_n(mem_.begin() + addr, out.size(), out.begin());
}

void CentralServer::WriteBytes(GlobalAddr addr,
                               std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lk(mu_);
  MERMAID_CHECK(InRegion(addr, data.size()));
  std::copy(data.begin(), data.end(), mem_.begin() + addr);
}

void CentralServer::HandleRead(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const GlobalAddr addr = r.U64();
  const std::uint32_t size = r.U32();
  if (!r.ok() || !InRegion(addr, size)) {
    stats_.Inc(kMalformed);
    return;
  }
  // Half the request-processing cost on each side of the operation.
  rt_.Delay(profile_->server_op_cost / 2);
  std::vector<std::uint8_t> out(size);
  ReadBytes(addr, out);
  stats_.Inc(kReads);
  ctx.Reply(std::move(out));
}

void CentralServer::HandleWrite(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const GlobalAddr addr = r.U64();
  auto data = r.Rest();
  if (!r.ok() || !InRegion(addr, data.size())) {
    stats_.Inc(kMalformed);
    return;
  }
  rt_.Delay(profile_->server_op_cost / 2);
  WriteBytes(addr, std::span<const std::uint8_t>(data.data(), data.size()));
  stats_.Inc(kWrites);
  ctx.Reply({});
}

CentralClient::CentralClient(net::Endpoint* ep, net::HostId server_host,
                             const arch::ArchProfile* server_profile,
                             CentralServer* local)
    : ep_(ep),
      server_host_(server_host),
      server_profile_(server_profile),
      local_(local) {}

namespace {

// The central server is the only copy of the data: a lost operation cannot
// be recovered locally, so calls retry generously and fail loudly when the
// server stays unreachable.
net::Endpoint::CallOpts CentralCallOpts() {
  net::Endpoint::CallOpts opts;
  opts.timeout = Milliseconds(400);
  opts.max_attempts = 64;
  return opts;
}

}  // namespace

void CentralClient::ReadRaw(GlobalAddr addr, std::span<std::uint8_t> out) {
  if (local_ != nullptr) {
    local_->ReadBytes(addr, out);
    return;
  }
  base::WireWriter w;
  w.U64(addr);
  w.U32(static_cast<std::uint32_t>(out.size()));
  auto reply = ep_->CallWithStatus(server_host_, kOpCentralRead,
                                   std::move(w).Take(),
                                   net::MsgKind::kControl, CentralCallOpts());
  if (reply.status == net::CallStatus::kShutdown) return;
  MERMAID_CHECK_MSG(reply.ok(), "central-server read timed out");
  MERMAID_CHECK(reply.body.size() == out.size());
  reply.body.CopyTo(out);
}

void CentralClient::WriteRaw(GlobalAddr addr,
                             std::span<const std::uint8_t> data) {
  if (local_ != nullptr) {
    local_->WriteBytes(addr, data);
    return;
  }
  base::WireWriter w;
  w.U64(addr);
  net::Body body(std::move(w).Take(), base::Buffer::CopyOf(data));
  auto reply =
      ep_->CallWithStatus(server_host_, kOpCentralWrite, std::move(body),
                          net::MsgKind::kControl, CentralCallOpts());
  MERMAID_CHECK_MSG(reply.status != net::CallStatus::kTimedOut,
                    "central-server write timed out");
}

}  // namespace mermaid::dsm
