// Layer ceilings for the codec: how fast the host can move a page at all
// (memcpy), how fast it can byte-swap one (a plain bswap loop), and how fast
// TypeRegistry::ConvertStrided converts one per basic type. The codec's
// distance from its ceilings bounds what a codec rewrite could save.
#include <algorithm>
#include <cstring>

#include "mermaid/base/rng.h"
#include "perfbench.h"

namespace perfbench {
namespace {

constexpr std::size_t kPageBytes = 8192;  // the Sun 3's VM page
constexpr int kReps = 5;                  // median of this many passes
constexpr double kPassSeconds = 0.04;

// Keeps the compiler from eliding work on `p`.
inline void Clobber(void* p) { asm volatile("" : : "g"(p) : "memory"); }

// Median GB/s over kReps passes of `op`, each processing one page per call
// for about kPassSeconds.
template <typename F>
double PageRate(F&& op) {
  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t pages = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      for (int i = 0; i < 64; ++i) op();
      pages += 64;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < kPassSeconds);
    rates.push_back(static_cast<double>(pages) * kPageBytes / elapsed / 1e9);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

}  // namespace

Ceilings MeasureCeilings(Recorder& rec, std::uint64_t seed) {
  Ceilings out;
  base::Rng rng(seed);
  std::vector<std::uint8_t> src(kPageBytes), dst(kPageBytes);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.NextU64());

  out.memcpy_gbps = PageRate([&] {
    std::memcpy(dst.data(), src.data(), kPageBytes);
    Clobber(dst.data());
  });

  std::vector<std::uint32_t> words(kPageBytes / 4);
  std::memcpy(words.data(), src.data(), kPageBytes);
  out.bswap_gbps = PageRate([&] {
    for (auto& w : words) w = __builtin_bswap32(w);
    Clobber(words.data());
  });

  // Sun 3 (big-endian IEEE) <-> Firefly (little-endian VAX), alternating
  // direction so the page stays a valid image of moderate values; after an
  // even number of calls it must equal the original again.
  arch::TypeRegistry reg;
  sim::Engine clock;  // never run: gives the spans a (constant) modeled time
  Caller call(rec, clock, -1, 0);
  struct Case {
    const char* name;
    arch::TypeId type;
  };
  const Case cases[] = {{"int", arch::TypeRegistry::kInt},
                        {"short", arch::TypeRegistry::kShort},
                        {"float", arch::TypeRegistry::kFloat},
                        {"double", arch::TypeRegistry::kDouble}};
  for (const Case& c : cases) {
    const std::size_t size = reg.SizeOf(c.type);
    const std::size_t count = kPageBytes / size;
    std::vector<std::uint8_t> page(kPageBytes);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t* p = page.data() + i * size;
      const double v = static_cast<double>(rng.NextRange(-100000, 100000)) / 7;
      if (c.type == arch::TypeRegistry::kFloat) {
        base::StoreAs(p, std::bit_cast<std::uint32_t>(static_cast<float>(v)),
                      base::ByteOrder::kBig);
      } else if (c.type == arch::TypeRegistry::kDouble) {
        base::StoreAs(p, std::bit_cast<std::uint64_t>(v),
                      base::ByteOrder::kBig);
      } else {
        std::memcpy(p, src.data() + i * size, size);
      }
    }
    const std::vector<std::uint8_t> original = page;
    arch::ConvertContext fwd, back;
    fwd.src = back.dst = &arch::Sun3Profile();
    fwd.dst = back.src = &arch::FireflyProfile();
    bool forward = true;
    out.codec_gbps[c.name] = PageRate([&] {
      call("TypeRegistry::ConvertStrided", Kind::kCodec, [&] {
        reg.ConvertStrided(c.type, page, count, size, forward ? fwd : back);
      });
      forward = !forward;
    });
    // PageRate makes a multiple of 64 calls, so the page is home again.
    out.round_trip_mismatches += page != original;
  }
  return out;
}

}  // namespace perfbench
