// Byte-addressable simulated physical memory with per-page permissions.
//
// Page permissions model the defenses the paper's ROP chain must respect:
// Data Execution Prevention (stack/heap writable but not executable, code
// executable but not writable). The gadget scanner only scans executable
// pages; the CPU faults on any fetch from a non-executable page, so a naive
// "write shellcode to the stack" attack fails while the ROP chain succeeds.
//
// Machine state (DESIGN.md §10). Every Memory is a copy-on-write view of a
// refcounted, immutable MemoryImage: each page starts as a read-only alias of
// the image's frame (the one static zero page for pristine pages) and is
// promoted to a private 4 KiB frame on its first write. A view therefore
// costs O(metadata) to create and O(pages actually dirtied) to run, and
// revert() rolls it back to the image in O(pages dirtied since the last
// revert). The per-page content versions (the decode-cache / SMC coherence
// machinery) double as the dirty bitmap: promotions and reverts happen
// exactly on the pages whose versions moved.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

namespace crs::sim {

/// Page permission bitmask.
enum Perm : std::uint8_t {
  kPermNone = 0,
  kPermRead = 1,
  kPermWrite = 2,
  kPermExec = 4,
  kPermRW = kPermRead | kPermWrite,
  kPermRX = kPermRead | kPermExec,
};

enum class AccessKind { kRead, kWrite, kExecute };

class MemoryImage;

class Memory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// A view of the empty image: size rounded up to a whole number of
  /// pages, every page zero with no permissions (mapping regions is the
  /// loader's job). Allocates no page data.
  explicit Memory(std::uint64_t size_bytes);

  /// A view of `image`: every page aliases the image's frame until first
  /// write. The image is refcounted and immutable, so any number of views
  /// (across threads) can share it concurrently.
  explicit Memory(std::shared_ptr<const MemoryImage> image);

  // The frame tables hold raw pointers into the image and the private
  // frames. Moves are safe (vector/deque moves transfer the heap buffers the
  // pointers target) but a copy would alias the source's private frames —
  // fork via freeze() instead.
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  Memory(Memory&&) = default;
  Memory& operator=(Memory&&) = default;

  /// Freezes the current contents into an immutable, shareable image (the
  /// fork baseline). Pristine pages — version 1, i.e. never written or
  /// remapped — all alias one static zero page, so freezing a fresh 16 MiB
  /// machine stores no page data at all.
  std::shared_ptr<const MemoryImage> freeze() const;

  /// Rolls every page whose version moved since the view was created (or
  /// last reverted) back to the image's bytes and permissions; returns the
  /// number of such pages. A promoted page keeps its private frame (the
  /// image bytes are copied into it), so repeated attempts never grow the
  /// private store. Versions of reverted pages are BUMPED, never rolled
  /// back: the decode and block caches validate with a version equality
  /// compare, so a slot decoded from the overwritten bytes can never match
  /// the reverted page, while clean pages keep their warm slots.
  std::uint64_t revert();

  std::uint64_t size() const { return size_; }
  std::uint64_t page_count() const { return perms_.size(); }

  /// Sets permissions for every page overlapping [addr, addr+len).
  /// A zero-length span is a no-op (nothing overlaps it).
  void set_permissions(std::uint64_t addr, std::uint64_t len, Perm perm);

  /// Permissions of the page containing `addr` (kPermNone out of range).
  Perm permissions_at(std::uint64_t addr) const;

  /// True when every byte of [addr, addr+len) is in range and its page
  /// grants the given access.
  bool check(std::uint64_t addr, std::uint64_t len, AccessKind kind) const;

  // Raw accessors. Bounds are enforced (crs::Error on violation) but
  // permissions are NOT: the CPU checks permissions and models faults;
  // the loader and the test harness bypass them deliberately.
  std::uint8_t read_u8(std::uint64_t addr) const;
  std::uint64_t read_u64(std::uint64_t addr) const;
  void write_u8(std::uint64_t addr, std::uint8_t value);
  void write_u64(std::uint64_t addr, std::uint64_t value);

  void write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> read_bytes(std::uint64_t addr,
                                       std::uint64_t len) const;

  /// Zero-copy view of [addr, addr+len) when the bytes are physically
  /// contiguous (always within one page; across pages whenever the backing
  /// frames happen to be adjacent), else a copy into an internal scratch
  /// buffer. Valid until the next read_span call or any mutation of this
  /// Memory. Used on the instruction-fetch fast path, whose callers decode
  /// the span immediately.
  std::span<const std::uint8_t> read_span(std::uint64_t addr,
                                          std::uint64_t len) const;

  /// Monotonic per-page content version. Every write (write_u8/u64/bytes)
  /// and every permission change touching a page bumps its version, so
  /// consumers holding state derived from page contents (the decode cache)
  /// can detect staleness with one integer compare. Versions start at 1 so
  /// a consumer initialised to 0 always misses on first use. A fork starts
  /// from the image's version values (compared only for equality
  /// everywhere, so the inherited magnitudes are behaviour-neutral).
  std::uint32_t page_version(std::uint64_t page_index) const {
    return page_index < versions_.size() ? versions_[page_index] : 0;
  }

  /// Pages promoted to private frames so far; each owns kPageSize bytes.
  std::uint64_t promoted_pages() const { return private_frames_.size(); }

 private:
  void bump_versions(std::uint64_t addr, std::uint64_t len) {
    if (len == 0) return;  // addr + len - 1 would underflow at addr == 0
    const std::uint64_t first = addr / kPageSize;
    const std::uint64_t last = (addr + len - 1) / kPageSize;
    for (std::uint64_t p = first; p <= last; ++p) ++versions_[p];
  }

  /// Promotion: copies the shared frame into a fresh private frame and
  /// repoints both table entries.
  std::uint8_t* promote(std::uint64_t page);

  /// Writable frame for `page`, promoting on its first write. Does NOT bump
  /// the version; callers bump it.
  std::uint8_t* frame_for_write(std::uint64_t page) {
    std::uint8_t* f = write_frames_[page];
    return f != nullptr ? f : promote(page);
  }

  std::uint64_t size_ = 0;
  std::shared_ptr<const MemoryImage> base_;  // never null
  // Promoted private frames; a deque never relocates existing elements, so
  // the frame-table pointers stay valid as promotions accumulate.
  std::deque<std::array<std::uint8_t, kPageSize>> private_frames_;
  // Per-page frame tables. A null write_frames_ entry means "shared, promote
  // on first write".
  std::vector<const std::uint8_t*> read_frames_;
  std::vector<std::uint8_t*> write_frames_;
  std::vector<std::uint8_t> perms_;      // one Perm byte per page
  std::vector<std::uint32_t> versions_;  // one content version per page
  // Per-page version at creation or the last revert: a page whose version
  // differs is dirty.
  std::vector<std::uint32_t> clean_versions_;
  // Scratch for read_span calls that cross non-adjacent frames.
  mutable std::vector<std::uint8_t> span_scratch_;
};

/// Immutable frozen copy of one Memory's full state, shared (refcounted)
/// between any number of concurrent views. Sparse: pristine pages alias a
/// single static zero page instead of owning storage.
class MemoryImage {
 public:
  MemoryImage() = default;
  MemoryImage(const MemoryImage&) = delete;
  MemoryImage& operator=(const MemoryImage&) = delete;

  /// `size_bytes` (rounded up to whole pages) of pristine pages: all zero,
  /// no permissions, version 1. Stores no page data.
  static std::shared_ptr<const MemoryImage> empty(std::uint64_t size_bytes);

  std::uint64_t size() const { return size_; }
  std::uint64_t page_count() const { return frames_.size(); }
  /// Pages that own storage (were non-pristine at freeze time).
  std::uint64_t stored_page_count() const { return storage_.size(); }

 private:
  friend class Memory;

  std::uint64_t size_ = 0;
  std::vector<const std::uint8_t*> frames_;  // per page; zero page or storage_
  std::deque<std::array<std::uint8_t, Memory::kPageSize>> storage_;
  std::vector<std::uint8_t> perms_;
  std::vector<std::uint32_t> versions_;
};

}  // namespace crs::sim
