// Guest physical address space: gfn -> mfn mapping plus dirty logging, and
// the guest-memory code every hypervisor shares.
//
// All hypervisors use this mechanism for their second-stage translation
// structure (Xen's P2M, KVM's memslots, bhyve's memory map) and the helpers
// below for the boot claim, guest allocation, in-place adoption and release.
// What differs between them is only the *allocation policy* that decides
// which machine frames back the guest (chunk size, Xen's NPT interleave),
// which each hypervisor's module passes in.

#ifndef HYPERTP_SRC_HV_GUEST_MEMORY_H_
#define HYPERTP_SRC_HV_GUEST_MEMORY_H_

#include <functional>
#include <set>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/hw/physical_memory.h"
#include "src/pram/pram.h"

namespace hypertp {

class GuestAddressSpace {
 public:
  // Appends a mapping. Mappings must be added in gfn order without overlap.
  Result<void> MapExtent(Gfn gfn, Mfn mfn, uint64_t frames);

  // Machine frame backing a guest page.
  Result<Mfn> Translate(Gfn gfn) const;

  const std::vector<GuestMapping>& mappings() const { return mappings_; }
  uint64_t mapped_frames() const { return mapped_frames_; }

  // Reads/writes the content word of a guest page via `ram`. Writes feed the
  // dirty log when logging is enabled.
  Result<uint64_t> Read(const PhysicalMemory& ram, Gfn gfn) const;
  Result<void> Write(PhysicalMemory& ram, Gfn gfn, uint64_t content);

  // All guest pages with non-zero content words, sorted by gfn. Visits only
  // this space's own mappings.
  std::vector<std::pair<Gfn, uint64_t>> DumpNonZero(const PhysicalMemory& ram) const;

  // Dirty logging.
  void EnableDirtyLog() { dirty_log_enabled_ = true; }
  void DisableDirtyLog() {
    dirty_log_enabled_ = false;
    dirty_.clear();
  }
  bool dirty_log_enabled() const { return dirty_log_enabled_; }
  // Returns and clears the set of dirtied gfns (sorted).
  std::vector<Gfn> FetchAndClearDirty();
  // Marks a page dirty without writing (used by cost-free dirty-rate models).
  Result<void> MarkDirty(Gfn gfn);
  size_t dirty_count() const { return dirty_.size(); }

 private:
  std::vector<GuestMapping> mappings_;  // Sorted by gfn, non-overlapping.
  uint64_t mapped_frames_ = 0;
  bool dirty_log_enabled_ = false;
  std::set<Gfn> dirty_;
};

// Claims `frames` frames of HV State at boot in pieces of at most `chunk`
// frames, halving the piece whenever no hole fits: after a micro-reboot free
// RAM is fragmented around the preserved guest frames, and no hypervisor
// heap needs physically contiguous memory. Returns the frames claimed.
uint64_t ClaimHypervisorFrames(PhysicalMemory& ram, uint64_t frames, uint64_t chunk);

// Allocates `memory_bytes` of guest memory for `uid` in chunks of at most
// `chunk_frames` (2 MiB-aligned when `huge_pages`) and maps them at
// consecutive gfns of `space`. `before_chunk`, when set, runs before each
// chunk with the chunk's frame count (Xen interleaves NPT pieces there).
Result<void> AllocateGuestFrames(PhysicalMemory& ram, uint64_t uid, uint64_t memory_bytes,
                                 bool huge_pages, uint64_t chunk_frames, GuestAddressSpace& space,
                                 const std::function<Result<void>(uint64_t)>& before_chunk = {});

// Adopts the in-place frames PRAM `entries` describe (InPlaceTP restore).
// Every entry must lie inside one extent still owned by guest `uid`, and the
// entries together must cover `memory_bytes`; anything else means the PRAM
// reservation failed, reported as kDataLoss prefixed with `hv` and naming
// the frames and the uid. One ownership check per entry, not per frame.
Result<void> AdoptGuestFrames(std::string_view hv, const PhysicalMemory& ram, uint64_t uid,
                              uint64_t memory_bytes, const std::vector<PramPageEntry>& entries,
                              GuestAddressSpace& space);

// Frees every frame VM `uid` owns: guest memory, VM state and VMM working set.
void FreeVmFrames(PhysicalMemory& ram, uint64_t uid);

}  // namespace hypertp

#endif  // HYPERTP_SRC_HV_GUEST_MEMORY_H_
