// The benchmark's workloads. Each one builds its inputs from a seed in an
// untimed Setup(), then runs identical cycles; every cycle is followed by
// checks computed apart from the simulator (see README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// Simulated-time outputs of one cycle (the paper's quantities).
struct CycleSim {
  double makespan_s = 0.0;
  double vm_downtime_s = 0.0;
  double exposure_vm_s = 0.0;

  bool operator==(const CycleSim&) const = default;
};

// Host wall time of one cycle, with the benchmark's own bookkeeping paused out.
class Stopwatch {
 public:
  void Start() {
    total_ = 0;
    Resume();
  }
  void Pause() { total_ += Now() - started_; }
  void Resume() { started_ = Now(); }
  int64_t ElapsedNs() const { return total_; }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  int64_t started_ = 0;
  int64_t total_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs. Returns an empty string on success, else the error.
  virtual std::string Setup() = 0;
  // Runs one cycle with `watch` running; the workload pauses it around its
  // own bookkeeping. Adds one to `*ops` as each operation (a transplant or a
  // campaign) starts. Returns an empty string on success, else the error of
  // the operation that failed.
  virtual std::string RunCycle(Stopwatch& watch, CycleSim* sim, int64_t* ops) = 0;
  // Checks the outputs of the cycle just run. One message per failed check.
  virtual std::vector<std::string> Check() = 0;
  // One-line description of the generated inputs.
  virtual std::string Describe() const = 0;
};

// Null for an unknown name. `small` shrinks the inputs for the self-test.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool small);

// Shows that every correctness check can fail: runs each check on valid
// data (must pass) and on deliberately corrupted data (must fail). Returns
// the number of checks that misbehaved.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
