// Simulated physical RAM.
//
// RAM is modelled as an array of 4 KiB machine frames managed by an
// extent-based allocator (first-fit with alignment, coalescing free).
// Frame *contents* are modelled as one 64-bit "content word" per frame,
// standing in for the frame's 4096 bytes; metadata frames (PRAM pages, the
// ledger, staged kernel images, parked UISR blobs) also carry real bytes.
//
// There is one frame store: every allocated extent owns everything written
// into its frames — content words, per-page byte payloads and an optional
// contiguous byte backing — so freeing or scrubbing an extent destroys its
// contents in one step, exactly as a real scrub would. Words are kept in
// small blocks allocated on first write, so multi-GiB machines stay cheap to
// simulate and a fully written guest costs about 8 bytes per frame. A
// per-owner index makes releasing a VM's memory cost proportional to that
// VM's extents, and ownership is answered per extent (OwnsRange), never per
// frame.

#ifndef HYPERTP_SRC_HW_PHYSICAL_MEMORY_H_
#define HYPERTP_SRC_HW_PHYSICAL_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"

namespace hypertp {

// Machine frame number: index of a 4 KiB frame in physical RAM.
using Mfn = uint64_t;
// Guest frame number: index of a 4 KiB page in a guest's physical address space.
using Gfn = uint64_t;

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kHugePageSize = 2 * 1024 * 1024;
inline constexpr uint64_t kFramesPerHugePage = kHugePageSize / kPageSize;  // 512
// Allocation order of a 2 MiB huge page (2^9 frames).
inline constexpr int kHugePageOrder = 9;

// Who owns a frame extent. `id` scopes the owner (e.g. VM id); 0 when unused.
enum class FrameOwnerKind : uint8_t {
  kHypervisor,   // HV State: hypervisor text/heap. Discarded on micro-reboot.
  kGuest,        // Guest State: a VM's physical address space. Kept in place.
  kVmState,      // VM_i State: NPT, vCPU contexts, device state.
  kVmm,          // User-space VMM (kvmtool/QEMU-like) working memory.
  kPramMeta,     // PRAM metadata pages. Must survive the micro-reboot.
  kUisr,         // Serialized UISR blobs parked in RAM across the reboot.
  kKernelImage,  // Staged kexec target kernel image.
};

std::string_view FrameOwnerKindName(FrameOwnerKind kind);

struct FrameOwner {
  FrameOwnerKind kind = FrameOwnerKind::kHypervisor;
  uint64_t id = 0;

  auto operator<=>(const FrameOwner&) const = default;
};

// A contiguous guest-physical -> machine-physical mapping: `frames` pages
// starting at `gfn` map to `frames` frames starting at `mfn`.
struct GuestMapping {
  Gfn gfn = 0;
  Mfn mfn = 0;
  uint64_t frames = 0;

  Gfn gfn_end() const { return gfn + frames; }
  bool operator==(const GuestMapping&) const = default;
};

// A contiguous run of allocated frames.
struct FrameExtent {
  Mfn base = 0;
  uint64_t count = 0;
  FrameOwner owner;

  uint64_t end() const { return base + count; }  // One past the last frame.
  bool Contains(Mfn mfn) const { return mfn >= base && mfn < end(); }
};

class PhysicalMemory {
 public:
  // `bytes` must be a multiple of the page size.
  explicit PhysicalMemory(uint64_t bytes);

  uint64_t total_frames() const { return total_frames_; }
  uint64_t total_bytes() const { return total_frames_ * kPageSize; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t allocated_frames() const { return total_frames_ - free_frames_; }

  // Allocates `count` contiguous frames whose base is a multiple of
  // `align_frames` (>= 1). First fit. Fails with kResourceExhausted when no
  // suitable hole exists.
  Result<Mfn> Alloc(uint64_t count, uint64_t align_frames, FrameOwner owner);
  // Single-frame convenience.
  Result<Mfn> AllocFrame(FrameOwner owner) { return Alloc(1, 1, owner); }
  // 2 MiB-aligned huge-page allocation (512 frames).
  Result<Mfn> AllocHugePage(FrameOwner owner) {
    return Alloc(kFramesPerHugePage, kFramesPerHugePage, owner);
  }

  // Frees exactly the extent previously returned by Alloc (base must match).
  // The extent's words, page payloads and backing are destroyed with it.
  Result<void> Free(Mfn base, uint64_t count);
  // Frees every extent with this owner; returns the number of frames freed.
  // Costs O(log extents) per extent of this owner.
  uint64_t FreeAllOwnedBy(FrameOwner owner);

  // Content access. Reads of never-written frames return 0 (freshly scrubbed).
  Result<void> WriteWord(Mfn mfn, uint64_t content);
  Result<uint64_t> ReadWord(Mfn mfn) const;
  // Calls fn(mfn, word) for every non-zero content word in
  // [base, base+count), in mfn order. Cost is proportional to the extents
  // the range touches plus the written blocks inside it.
  template <typename Fn>
  void ForEachNonZeroWord(Mfn base, uint64_t count, Fn&& fn) const;

  // Full-page byte payloads, used for small metadata frames (PRAM pages,
  // staged kernel images) that need real contents. At most kPageSize bytes.
  // Payloads are destroyed by Free/Scrub just like content words.
  Result<void> WritePage(Mfn mfn, std::vector<uint8_t> bytes);
  // Empty result for allocated-but-never-written frames.
  Result<std::vector<uint8_t>> ReadPage(Mfn mfn) const;

  // Contiguous byte backing for a whole allocated extent, the storage under
  // the zero-copy UISR save path: encoders write wire bytes straight into the
  // returned span (PramFrameWriter) and the restore side decodes from it
  // without per-page reassembly. [base, base+frames) must be exactly one
  // allocated extent. The storage is frames * kPageSize zero-initialized
  // bytes; re-backing resets it and drops the extent's per-page payloads.
  // WritePage/ReadPage on a backed frame operate on the corresponding
  // page-sized slice, so page-level corruption (and its detection) behaves
  // exactly as with per-page payloads. The backing dies with its extent.
  //
  // `skip_zero_prefix` is the caller's promise that it will overwrite the
  // first that many bytes before anything reads them: those bytes come back
  // uninitialized and only the remainder is zeroed. This is what lets the
  // zero-copy encode pay for one memory pass instead of a zero-fill followed
  // by a full overwrite. The default (0) zeroes everything.
  Result<std::span<uint8_t>> BackExtent(Mfn base, uint64_t frames,
                                        uint64_t skip_zero_prefix = 0);
  // Read view of the backing of exactly the extent (base, frames); kNotFound
  // when that extent was never backed (caller falls back to page-wise reads).
  Result<std::span<const uint8_t>> BackedExtent(Mfn base, uint64_t frames) const;

  // True when `mfn` lies inside an allocated extent.
  bool IsAllocated(Mfn mfn) const;
  // Owner of the extent containing `mfn`, or error when free/out of range.
  Result<FrameOwner> OwnerOf(Mfn mfn) const;
  // True when [base, base+count) is non-empty and lies inside one allocated
  // extent owned by `owner`. One lookup, whatever `count` is.
  bool OwnsRange(Mfn base, uint64_t count, FrameOwner owner) const;

  // All allocated extents in address order.
  std::vector<FrameExtent> AllocatedExtents() const;
  // All allocated extents with the given owner kind (any id).
  std::vector<FrameExtent> ExtentsOfKind(FrameOwnerKind kind) const;

  // Micro-reboot scrubber: frees every allocated extent that is not fully
  // covered by `preserved`, destroying its contents. Returns the number of
  // frames scrubbed. Extents in `preserved` must be allocated; their
  // ownership and contents are left untouched.
  uint64_t ScrubExcept(const std::vector<FrameExtent>& preserved);

  // Adjusts the recorded owner of an existing allocated extent (used when the
  // new hypervisor adopts preserved frames after the micro-reboot).
  Result<void> Reassign(Mfn base, uint64_t count, FrameOwner new_owner);

 private:
  // Content words live in blocks of this many frames, allocated on the
  // first non-zero write into the block.
  static constexpr uint64_t kWordBlock = 64;

  // Backing storage: default-initialized so BackExtent can zero only the
  // bytes its caller will not overwrite (std::vector would memset it all).
  // Deep-copies so PhysicalMemory (and Machine) stay copyable.
  struct BackingBytes {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;

    BackingBytes() = default;
    BackingBytes(BackingBytes&&) = default;
    BackingBytes& operator=(BackingBytes&&) = default;
    BackingBytes(const BackingBytes& other)
        : data(other.size > 0 ? new uint8_t[other.size] : nullptr), size(other.size) {
      if (size > 0) {
        std::copy(other.data.get(), other.data.get() + size, data.get());
      }
    }
    BackingBytes& operator=(const BackingBytes& other) {
      if (this != &other) {
        BackingBytes copy(other);
        data = std::move(copy.data);
        size = copy.size;
      }
      return *this;
    }
  };

  // One allocated extent and everything written into its frames.
  struct Extent {
    FrameExtent range;
    // Word blocks indexed by (frame offset / kWordBlock); empty when the
    // extent was never written, an empty block reads as zeros.
    std::vector<std::vector<uint64_t>> words;
    // Per-page payloads by frame offset; empty while the extent is backed.
    std::map<uint64_t, std::vector<uint8_t>> pages;
    BackingBytes backing;  // Size 0, or range.count * kPageSize.
  };
  using ExtentMap = std::map<Mfn, Extent>;

  // Merges [base, base+count) into the free map, coalescing neighbors.
  void InsertFree(Mfn base, uint64_t count);
  // Returns the extent's frames to the free map, dropping its contents and
  // its owner-index entry; returns the iterator after it.
  ExtentMap::iterator Release(ExtentMap::iterator it);

  uint64_t total_frames_;
  uint64_t free_frames_;
  // base -> count of free holes, disjoint and coalesced.
  std::map<Mfn, uint64_t> free_;
  // base -> allocated extent with its contents, disjoint.
  ExtentMap allocated_;
  // (owner, base) of every allocated extent, so one owner's extents are a
  // contiguous range.
  std::set<std::pair<FrameOwner, Mfn>> by_owner_;
};

template <typename Fn>
void PhysicalMemory::ForEachNonZeroWord(Mfn base, uint64_t count, Fn&& fn) const {
  const Mfn end = base + count;
  auto it = allocated_.upper_bound(base);
  if (it != allocated_.begin() && std::prev(it)->second.range.end() > base) {
    --it;
  }
  for (; it != allocated_.end() && it->first < end; ++it) {
    const Extent& ext = it->second;
    if (ext.words.empty()) {
      continue;
    }
    const uint64_t stop = std::min(end, ext.range.end()) - ext.range.base;
    for (uint64_t off = std::max(base, ext.range.base) - ext.range.base; off < stop; ++off) {
      const std::vector<uint64_t>& block = ext.words[off / kWordBlock];
      if (block.empty()) {
        off |= kWordBlock - 1;  // Skip to the last frame of the unwritten block.
      } else if (block[off % kWordBlock] != 0) {
        fn(ext.range.base + off, block[off % kWordBlock]);
      }
    }
  }
}

}  // namespace hypertp

#endif  // HYPERTP_SRC_HW_PHYSICAL_MEMORY_H_
