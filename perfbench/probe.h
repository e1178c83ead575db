// Per-layer host-time probe for the traced binary (perfbench_traced).
//
// A Span brackets one call into a layer's public function. Spans nest on a
// single stack (the benchmark pins the simulator to one real thread), and
// each span's *self* time — its duration minus the part its child spans
// cover — is charged to its layer. Counts are recorded at the same call
// boundaries. Spans are opened from two places:
//   - the benchmark's own calls (InPlaceTransplant::Run, CampaignPlanner::Run,
//     guest page writes, ...), through Span objects in workloads.cc;
//   - the simulator's calls between layers, through the link-time wrappers
//     in wraps.cc (-Wl,--wrap=<symbol>), which only the traced binary links.
//
// In the untraced binary (PERFBENCH_TRACED undefined) every entry point here
// compiles to nothing, so end-to-end numbers carry no probe cost.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Layers are named after the simulator's modules under src/.
enum class Layer : uint8_t {
  kHw,
  kPram,
  kKexec,
  kHv,
  kUisr,
  kPipeline,
  kCore,
  kMigrate,
  kFleet,
  kCampaign,
  kVulndb,
  kPolicy,
  kCount,
};

// Counts recorded at layer boundaries.
enum class Counter : uint8_t {
  kOwnerLookups,            // hw: PhysicalMemory::OwnerOf calls.
  kPramEntries,             // pram: page entries parsed at early boot.
  kPramMetadataBytes,       // pram: metadata bytes Finalize() laid out.
  kFramesScrubbed,          // kexec: frames the micro-reboot scrubbed.
  kGuestPageOps,            // hv: guest page reads + writes.
  kUisrBytes,               // uisr: bytes encoded + decoded.
  kPretranslateHits,        // pipeline: cached blobs adopted unmodified.
  kPretranslateInvalidations,  // pipeline: cached blobs reconciled.
  kMigratePagesCopied,      // migrate: pages sent over the link.
  kMigrateBytesSent,        // migrate: bytes sent over the link.
  kMigrateGuestBytes,       // migrate: guest memory of the VMs moved.
  kFleetEvents,             // fleet: FleetTrace records.
  kCampaignEpochs,          // campaign: epoch barriers.
  kCampaignIdleEpochs,      // campaign: barriers the adaptive stride skipped.
  kCampaignSteals,          // campaign: racks re-homed by work-stealing.
  kCurvePoints,             // vulndb: exposure-curve points emitted.
  kPolicyDecisions,         // policy: per-VM mechanism decisions.
  kCount,
};

#if defined(PERFBENCH_TRACED)

class Span {
 public:
  Span(Layer layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

void Count(Counter counter, int64_t n = 1);

// Accounting is off until Enable(); bookkeeping outside the timed cycles runs
// with it off so only the measured work is attributed.
void Enable(bool on);
bool Enabled();
// Zeroes every total (the end of warm-up).
void Reset();

struct Totals {
  double self_ms[static_cast<int>(Layer::kCount)] = {};
  int64_t counts[static_cast<int>(Counter::kCount)] = {};
};
Totals Snapshot();

// Writes the recorded coarse spans (name, layer, start, end, parent) as JSON.
bool WriteSpans(const std::string& path);

#else

class Span {
 public:
  Span(Layer, const char*) {}
};
inline void Count(Counter, int64_t = 1) {}

#endif

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
