#include "src/hw/physical_memory.h"

#include <algorithm>
#include <cassert>

namespace hypertp {

std::string_view FrameOwnerKindName(FrameOwnerKind kind) {
  switch (kind) {
    case FrameOwnerKind::kHypervisor:
      return "hypervisor";
    case FrameOwnerKind::kGuest:
      return "guest";
    case FrameOwnerKind::kVmState:
      return "vm-state";
    case FrameOwnerKind::kVmm:
      return "vmm";
    case FrameOwnerKind::kPramMeta:
      return "pram-meta";
    case FrameOwnerKind::kUisr:
      return "uisr";
    case FrameOwnerKind::kKernelImage:
      return "kernel-image";
  }
  return "?";
}

PhysicalMemory::PhysicalMemory(uint64_t bytes)
    : total_frames_(bytes / kPageSize), free_frames_(bytes / kPageSize - 1) {
  assert(bytes % kPageSize == 0 && "RAM size must be page aligned");
  assert(total_frames_ > 1);
  // Frame 0 is never handed out: real firmware owns low memory, and mfn 0
  // doubles as the null pointer in PRAM/kexec chains.
  free_.emplace(1, total_frames_ - 1);
}

namespace {

// The extent of `extents` (a PhysicalMemory extent map, const or not)
// containing `mfn`, or nullptr.
template <typename ExtentMap>
auto* ExtentAt(ExtentMap& extents, Mfn mfn) {
  auto it = extents.upper_bound(mfn);
  decltype(&it->second) found = nullptr;
  if (it != extents.begin() && std::prev(it)->second.range.Contains(mfn)) {
    found = &std::prev(it)->second;
  }
  return found;
}

}  // namespace

Result<Mfn> PhysicalMemory::Alloc(uint64_t count, uint64_t align_frames, FrameOwner owner) {
  if (count == 0 || align_frames == 0) {
    return InvalidArgumentError("alloc: count and alignment must be positive");
  }
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const Mfn hole_base = it->first;
    const uint64_t hole_count = it->second;
    // First aligned base at or after hole_base.
    const Mfn aligned = ((hole_base + align_frames - 1) / align_frames) * align_frames;
    if (aligned + count > hole_base + hole_count) {
      continue;
    }
    // Carve [aligned, aligned+count) out of the hole.
    free_.erase(it);
    if (aligned > hole_base) {
      free_.emplace(hole_base, aligned - hole_base);
    }
    if (aligned + count < hole_base + hole_count) {
      free_.emplace(aligned + count, hole_base + hole_count - (aligned + count));
    }
    free_frames_ -= count;
    allocated_[aligned].range = FrameExtent{aligned, count, owner};
    by_owner_.emplace(owner, aligned);
    return aligned;
  }
  return ResourceExhaustedError("alloc: no hole of " + std::to_string(count) +
                                " frames with alignment " + std::to_string(align_frames));
}

void PhysicalMemory::InsertFree(Mfn base, uint64_t count) {
  // Coalesce with successor.
  auto next = free_.lower_bound(base);
  if (next != free_.end() && base + count == next->first) {
    count += next->second;
    next = free_.erase(next);
  }
  // Coalesce with predecessor.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == base) {
      prev->second += count;
      return;
    }
  }
  free_.emplace(base, count);
}

PhysicalMemory::ExtentMap::iterator PhysicalMemory::Release(ExtentMap::iterator it) {
  const FrameExtent range = it->second.range;
  by_owner_.erase({range.owner, range.base});
  free_frames_ += range.count;
  InsertFree(range.base, range.count);
  return allocated_.erase(it);  // Destroys the words, pages and backing with it.
}

Result<void> PhysicalMemory::Free(Mfn base, uint64_t count) {
  auto it = allocated_.find(base);
  if (it == allocated_.end() || it->second.range.count != count) {
    return InvalidArgumentError("free: no allocated extent [" + std::to_string(base) + ", +" +
                                std::to_string(count) + ")");
  }
  Release(it);
  return OkResult();
}

uint64_t PhysicalMemory::FreeAllOwnedBy(FrameOwner owner) {
  uint64_t freed = 0;
  for (auto it = by_owner_.lower_bound({owner, 0});
       it != by_owner_.end() && it->first == owner;) {
    auto ext = allocated_.find((it++)->second);
    freed += ext->second.range.count;
    Release(ext);
  }
  return freed;
}

Result<void> PhysicalMemory::WriteWord(Mfn mfn, uint64_t content) {
  Extent* ext = ExtentAt(allocated_, mfn);
  if (ext == nullptr) {
    return FailedPreconditionError("write to unallocated frame " + std::to_string(mfn));
  }
  const uint64_t off = mfn - ext->range.base;
  if (ext->words.empty()) {
    if (content == 0) {
      return OkResult();
    }
    ext->words.resize((ext->range.count + kWordBlock - 1) / kWordBlock);
  }
  std::vector<uint64_t>& block = ext->words[off / kWordBlock];
  if (block.empty()) {
    if (content == 0) {
      return OkResult();
    }
    block.resize(kWordBlock);
  }
  block[off % kWordBlock] = content;
  return OkResult();
}

Result<uint64_t> PhysicalMemory::ReadWord(Mfn mfn) const {
  if (mfn >= total_frames_) {
    return OutOfRangeError("read of frame " + std::to_string(mfn) + " beyond RAM");
  }
  const Extent* ext = ExtentAt(allocated_, mfn);
  if (ext == nullptr || ext->words.empty()) {
    return 0;
  }
  const uint64_t off = mfn - ext->range.base;
  const std::vector<uint64_t>& block = ext->words[off / kWordBlock];
  return block.empty() ? 0 : block[off % kWordBlock];
}

bool PhysicalMemory::IsAllocated(Mfn mfn) const { return ExtentAt(allocated_, mfn) != nullptr; }

Result<FrameOwner> PhysicalMemory::OwnerOf(Mfn mfn) const {
  if (const Extent* ext = ExtentAt(allocated_, mfn)) {
    return ext->range.owner;
  }
  return NotFoundError("frame " + std::to_string(mfn) + " is not allocated");
}

bool PhysicalMemory::OwnsRange(Mfn base, uint64_t count, FrameOwner owner) const {
  const Extent* ext = ExtentAt(allocated_, base);
  return ext != nullptr && count > 0 && ext->range.owner == owner &&
         count <= ext->range.end() - base;
}

std::vector<FrameExtent> PhysicalMemory::AllocatedExtents() const {
  std::vector<FrameExtent> out;
  out.reserve(allocated_.size());
  for (const auto& [base, ext] : allocated_) {
    out.push_back(ext.range);
  }
  return out;
}

std::vector<FrameExtent> PhysicalMemory::ExtentsOfKind(FrameOwnerKind kind) const {
  std::vector<FrameExtent> out;
  for (const auto& [base, ext] : allocated_) {
    if (ext.range.owner.kind == kind) {
      out.push_back(ext.range);
    }
  }
  return out;
}

uint64_t PhysicalMemory::ScrubExcept(const std::vector<FrameExtent>& preserved) {
  // Sort preserved extents for binary-search coverage checks.
  std::vector<FrameExtent> keep = preserved;
  std::sort(keep.begin(), keep.end(),
            [](const FrameExtent& a, const FrameExtent& b) { return a.base < b.base; });

  auto covered = [&keep](const FrameExtent& ext) {
    // Find the preserved extent starting at or before ext.base.
    auto it = std::upper_bound(
        keep.begin(), keep.end(), ext.base,
        [](Mfn value, const FrameExtent& e) { return value < e.base; });
    if (it == keep.begin()) {
      return false;
    }
    const FrameExtent& candidate = *std::prev(it);
    return ext.base >= candidate.base && ext.end() <= candidate.end();
  };

  uint64_t scrubbed = 0;
  for (auto it = allocated_.begin(); it != allocated_.end();) {
    if (covered(it->second.range)) {
      ++it;
    } else {
      scrubbed += it->second.range.count;
      it = Release(it);
    }
  }
  return scrubbed;
}

Result<void> PhysicalMemory::WritePage(Mfn mfn, std::vector<uint8_t> bytes) {
  Extent* ext = ExtentAt(allocated_, mfn);
  if (ext == nullptr) {
    return FailedPreconditionError("page write to unallocated frame " + std::to_string(mfn));
  }
  if (bytes.size() > kPageSize) {
    return InvalidArgumentError("page payload of " + std::to_string(bytes.size()) +
                                " bytes exceeds frame size");
  }
  const uint64_t off = mfn - ext->range.base;
  // A frame of a backed extent stays there: the page write replaces its
  // slice (zero-padded, matching whole-page overwrite semantics), so
  // page-level corruption of a parked blob lands in the same storage the
  // zero-copy decode reads.
  if (ext->backing.size > 0) {
    uint8_t* slice = ext->backing.data.get() + off * kPageSize;
    std::fill(slice, slice + kPageSize, 0);
    std::copy(bytes.begin(), bytes.end(), slice);
    return OkResult();
  }
  ext->pages[off] = std::move(bytes);
  return OkResult();
}

Result<std::vector<uint8_t>> PhysicalMemory::ReadPage(Mfn mfn) const {
  if (mfn >= total_frames_) {
    return OutOfRangeError("page read of frame " + std::to_string(mfn) + " beyond RAM");
  }
  const Extent* ext = ExtentAt(allocated_, mfn);
  if (ext == nullptr) {
    return std::vector<uint8_t>{};
  }
  const uint64_t off = mfn - ext->range.base;
  if (ext->backing.size > 0) {
    const uint8_t* slice = ext->backing.data.get() + off * kPageSize;
    return std::vector<uint8_t>(slice, slice + kPageSize);
  }
  auto it = ext->pages.find(off);
  if (it == ext->pages.end()) {
    return std::vector<uint8_t>{};
  }
  return it->second;
}

Result<std::span<uint8_t>> PhysicalMemory::BackExtent(Mfn base, uint64_t frames,
                                                      uint64_t skip_zero_prefix) {
  if (frames == 0) {
    return InvalidArgumentError("back extent: frame count must be positive");
  }
  auto it = allocated_.find(base);
  if (it == allocated_.end() || it->second.range.count != frames) {
    return FailedPreconditionError("back extent: [" + std::to_string(base) + ", +" +
                                   std::to_string(frames) + ") is not one allocated extent");
  }
  Extent& ext = it->second;
  // One store per frame: the backing replaces any per-page payloads.
  ext.pages.clear();
  const size_t bytes = frames * kPageSize;
  ext.backing.data = std::make_unique_for_overwrite<uint8_t[]>(bytes);
  ext.backing.size = bytes;
  // Honor the caller's overwrite promise: zero only what it won't write.
  const size_t zero_from = skip_zero_prefix < bytes ? skip_zero_prefix : bytes;
  std::fill(ext.backing.data.get() + zero_from, ext.backing.data.get() + bytes, 0);
  return std::span<uint8_t>(ext.backing.data.get(), bytes);
}

Result<std::span<const uint8_t>> PhysicalMemory::BackedExtent(Mfn base, uint64_t frames) const {
  auto it = allocated_.find(base);
  if (it == allocated_.end() || it->second.backing.size == 0 ||
      it->second.range.count != frames) {
    return NotFoundError("no contiguous backing for [" + std::to_string(base) + ", +" +
                         std::to_string(frames) + ")");
  }
  return std::span<const uint8_t>(it->second.backing.data.get(), it->second.backing.size);
}

Result<void> PhysicalMemory::Reassign(Mfn base, uint64_t count, FrameOwner new_owner) {
  auto it = allocated_.find(base);
  if (it == allocated_.end() || it->second.range.count != count) {
    return InvalidArgumentError("reassign: no allocated extent [" + std::to_string(base) + ", +" +
                                std::to_string(count) + ")");
  }
  by_owner_.erase({it->second.range.owner, base});
  by_owner_.emplace(new_owner, base);
  it->second.range.owner = new_owner;
  return OkResult();
}

}  // namespace hypertp
