#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/base/zero_mapping.h"

namespace mermaid::base {
namespace {

std::size_t OsPage() { return static_cast<std::size_t>(sysconf(_SC_PAGESIZE)); }

// OS pages of `m` that hold a frame. Reading a page maps it too (to the
// shared zero page), so callers count before they read.
std::size_t ResidentPages(const ZeroMapping& m) {
  const std::size_t pages = (m.size() + OsPage() - 1) / OsPage();
  std::vector<unsigned char> vec(pages);
  EXPECT_EQ(mincore(const_cast<std::uint8_t*>(m.data()), m.size(), vec.data()),
            0);
  std::size_t n = 0;
  for (unsigned char v : vec) n += v & 1;
  return n;
}

bool AllZero(const ZeroMapping& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] != 0) return false;
  }
  return true;
}

TEST(ZeroMapping, UntouchedReadsZero) {
  ZeroMapping m(16 * OsPage() + 100);
  EXPECT_EQ(m.size(), 16 * OsPage() + 100);
  EXPECT_TRUE(AllZero(m));
}

TEST(ZeroMapping, OnlyWrittenPagesAreResident) {
  ZeroMapping m(16 * OsPage());
  EXPECT_EQ(ResidentPages(m), 0u);
  for (std::size_t p : {1u, 5u, 9u}) m.data()[p * OsPage() + 7] = 0xAB;
  EXPECT_EQ(ResidentPages(m), 3u);
  EXPECT_EQ(m.data()[5 * OsPage() + 7], 0xAB);
}

TEST(ZeroMapping, WipeKeepsAddressZeroesAndReleasesFrames) {
  ZeroMapping m(16 * OsPage());
  std::uint8_t* const before = m.data();
  for (std::size_t p = 0; p < 16; p += 3) m.data()[p * OsPage()] = 0x5A;
  EXPECT_EQ(ResidentPages(m), 6u);
  m.Wipe();
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(ResidentPages(m), 0u);
  EXPECT_TRUE(AllZero(m));
  m.data()[3] = 1;  // still writable after the wipe
  EXPECT_EQ(m.data()[3], 1);
}

TEST(ZeroMapping, WriteOnePastTheEndHitsTheGuardPage) {
  // The size is not a multiple of the OS page: the bytes are placed so
  // that they still end exactly at the guard page.
  ASSERT_DEATH(
      {
        ZeroMapping m(3 * OsPage() + 100);
        auto* bytes = static_cast<volatile std::uint8_t*>(m.data());
        bytes[m.size() - 1] = 1;
        bytes[m.size()] = 1;
      },
      "");
}

}  // namespace
}  // namespace mermaid::base
