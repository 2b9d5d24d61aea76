// A private anonymous memory mapping that reads as zero until written.
//
// The OS gives a page of the mapping a frame only when the page is first
// written, so a large image of which a process touches a small part costs
// memory for that part alone. The bytes end exactly at a PROT_NONE guard
// page: an overrun faults in every build, sanitizer or not. The address is
// fixed for the object's lifetime, including across Wipe().
#pragma once

#include <cstddef>
#include <cstdint>

namespace mermaid::base {

class ZeroMapping {
 public:
  explicit ZeroMapping(std::size_t bytes);
  ~ZeroMapping();
  ZeroMapping(const ZeroMapping&) = delete;
  ZeroMapping& operator=(const ZeroMapping&) = delete;

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::uint8_t* begin() { return data_; }
  std::uint8_t* end() { return data_ + size_; }

  // Every byte reads zero again and the frames return to the OS; data() is
  // unchanged. No byte is written, so a caller need not know which pages
  // it touched.
  void Wipe();

 private:
  std::size_t size_ = 0;
  std::size_t usable_ = 0;        // size_ rounded up to whole OS pages
  std::uint8_t* base_ = nullptr;  // start of the mapping; the guard page
                                  // is at base_ + usable_
  std::uint8_t* data_ = nullptr;  // base_ + usable_ - size_
};

}  // namespace mermaid::base
