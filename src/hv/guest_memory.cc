#include "src/hv/guest_memory.h"

#include <algorithm>
#include <string>

namespace hypertp {

Result<void> GuestAddressSpace::MapExtent(Gfn gfn, Mfn mfn, uint64_t frames) {
  if (frames == 0) {
    return InvalidArgumentError("guest map: empty extent");
  }
  if (!mappings_.empty() && gfn < mappings_.back().gfn_end()) {
    return InvalidArgumentError("guest map: extents must be added in gfn order");
  }
  // Merge with the previous extent when both spaces are contiguous.
  if (!mappings_.empty()) {
    GuestMapping& last = mappings_.back();
    if (last.gfn_end() == gfn && last.mfn + last.frames == mfn) {
      last.frames += frames;
      mapped_frames_ += frames;
      return OkResult();
    }
  }
  mappings_.push_back(GuestMapping{gfn, mfn, frames});
  mapped_frames_ += frames;
  return OkResult();
}

Result<Mfn> GuestAddressSpace::Translate(Gfn gfn) const {
  // Binary search for the extent containing gfn.
  auto it = std::upper_bound(mappings_.begin(), mappings_.end(), gfn,
                             [](Gfn value, const GuestMapping& m) { return value < m.gfn; });
  if (it == mappings_.begin()) {
    return NotFoundError("gfn " + std::to_string(gfn) + " not mapped");
  }
  const GuestMapping& m = *std::prev(it);
  if (gfn >= m.gfn_end()) {
    return NotFoundError("gfn " + std::to_string(gfn) + " not mapped");
  }
  return m.mfn + (gfn - m.gfn);
}

Result<uint64_t> GuestAddressSpace::Read(const PhysicalMemory& ram, Gfn gfn) const {
  HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, Translate(gfn));
  return ram.ReadWord(mfn);
}

Result<void> GuestAddressSpace::Write(PhysicalMemory& ram, Gfn gfn, uint64_t content) {
  HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, Translate(gfn));
  HYPERTP_RETURN_IF_ERROR(ram.WriteWord(mfn, content));
  if (dirty_log_enabled_) {
    dirty_.insert(gfn);
  }
  return OkResult();
}

std::vector<std::pair<Gfn, uint64_t>> GuestAddressSpace::DumpNonZero(
    const PhysicalMemory& ram) const {
  // Walking the mappings in gfn order yields the pages already sorted.
  std::vector<std::pair<Gfn, uint64_t>> out;
  for (const GuestMapping& m : mappings_) {
    ram.ForEachNonZeroWord(m.mfn, m.frames, [&out, &m](Mfn mfn, uint64_t word) {
      out.emplace_back(m.gfn + (mfn - m.mfn), word);
    });
  }
  return out;
}

std::vector<Gfn> GuestAddressSpace::FetchAndClearDirty() {
  std::vector<Gfn> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

Result<void> GuestAddressSpace::MarkDirty(Gfn gfn) {
  HYPERTP_RETURN_IF_ERROR(Translate(gfn));
  if (dirty_log_enabled_) {
    dirty_.insert(gfn);
  }
  return OkResult();
}

uint64_t ClaimHypervisorFrames(PhysicalMemory& ram, uint64_t frames, uint64_t chunk) {
  const FrameOwner hv{FrameOwnerKind::kHypervisor, 0};
  uint64_t claimed = 0;
  while (claimed < frames && chunk > 0) {
    const uint64_t want = std::min(frames - claimed, chunk);
    if (ram.Alloc(want, 1, hv).ok()) {
      claimed += want;
    } else {
      chunk /= 2;  // Fall back to smaller pieces in fragmented holes.
    }
  }
  return claimed;
}

Result<void> AllocateGuestFrames(PhysicalMemory& ram, uint64_t uid, uint64_t memory_bytes,
                                 bool huge_pages, uint64_t chunk_frames, GuestAddressSpace& space,
                                 const std::function<Result<void>(uint64_t)>& before_chunk) {
  const FrameOwner owner{FrameOwnerKind::kGuest, uid};
  const uint64_t align = huge_pages ? kFramesPerHugePage : 1;
  uint64_t remaining = memory_bytes / kPageSize;
  Gfn gfn = 0;
  while (remaining > 0) {
    const uint64_t chunk = std::min(remaining, chunk_frames);
    if (before_chunk) {
      HYPERTP_RETURN_IF_ERROR(before_chunk(chunk));
    }
    HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, ram.Alloc(chunk, align, owner));
    HYPERTP_RETURN_IF_ERROR(space.MapExtent(gfn, mfn, chunk));
    gfn += chunk;
    remaining -= chunk;
  }
  return OkResult();
}

Result<void> AdoptGuestFrames(std::string_view hv, const PhysicalMemory& ram, uint64_t uid,
                              uint64_t memory_bytes, const std::vector<PramPageEntry>& entries,
                              GuestAddressSpace& space) {
  const FrameOwner owner{FrameOwnerKind::kGuest, uid};
  for (const PramPageEntry& e : entries) {
    if (!ram.OwnsRange(e.mfn, e.frame_count(), owner)) {
      return DataLossError(std::string(hv) + ": in-place frames [" + std::to_string(e.mfn) +
                           ", +" + std::to_string(e.frame_count()) +
                           ") are not one extent owned by guest uid " + std::to_string(uid));
    }
    HYPERTP_RETURN_IF_ERROR(space.MapExtent(e.gfn, e.mfn, e.frame_count()));
  }
  if (space.mapped_frames() != memory_bytes / kPageSize) {
    return DataLossError(std::string(hv) + ": PRAM file of guest uid " + std::to_string(uid) +
                         " covers " + std::to_string(space.mapped_frames()) +
                         " frames, VM declares " + std::to_string(memory_bytes / kPageSize));
  }
  return OkResult();
}

void FreeVmFrames(PhysicalMemory& ram, uint64_t uid) {
  for (FrameOwnerKind kind :
       {FrameOwnerKind::kGuest, FrameOwnerKind::kVmState, FrameOwnerKind::kVmm}) {
    ram.FreeAllOwnedBy(FrameOwner{kind, uid});
  }
}

}  // namespace hypertp
