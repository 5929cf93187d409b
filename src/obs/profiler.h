#ifndef BELLWETHER_OBS_PROFILER_H_
#define BELLWETHER_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bellwether::obs {

// ---------------------------------------------------------------------------
// Profile labels. A label is a small interned id for the name of the
// innermost live trace span on a thread; the sampling profiler tags every
// stack sample with it and the heap tracker attributes every allocation to
// it, so both slice per builder phase. Label 0 is reserved for "no span".
// The interning table is bounded (kMaxProfileLabels); names past the bound
// collapse into one overflow label so the signal handler and operator new
// can index fixed arrays without allocation.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kMaxProfileLabels = 512;
inline constexpr uint32_t kNoProfileLabel = 0;

/// Interns `name`, returning its stable label id (or the overflow id when
/// the table is full). Thread-safe; never called from a signal handler.
uint32_t InternProfileLabel(std::string_view name);

/// Name of an interned label. Id 0 -> "(no span)"; unknown -> "(unknown)".
std::string ProfileLabelName(uint32_t id);

/// True while either the sampling profiler or the heap tracker is armed.
/// TraceSpan consults this before paying for label interning, so both
/// facilities are zero-cost (one relaxed load) when disabled.
bool ProfileLabelCaptureEnabled();

/// Pushes `id` onto the calling thread's label stack. Returns false when
/// the fixed-depth stack is full (the caller must then skip the matching
/// PopProfileLabel). Signal handlers see the push atomically.
bool PushProfileLabel(uint32_t id);
void PopProfileLabel();

/// Innermost label currently live on the calling thread (0 = none).
uint32_t CurrentProfileLabel();

namespace internal {
/// Arms/disarms one bit of the label-capture mask (bit 1 = sampling
/// profiler, bit 2 = heap tracker). ProfileLabelCaptureEnabled() is true
/// while any bit is set.
void SetCaptureFlag(uint32_t bit, bool on);
}  // namespace internal

// ---------------------------------------------------------------------------
// Symbolized, folded profile.
// ---------------------------------------------------------------------------

/// A folded CPU profile: collapsed call stacks ("root;caller;...;leaf" with
/// ';'-separated frames, innermost last) mapped to sample counts — the
/// flamegraph.pl input format. The first frame of every stack recorded by
/// the Profiler is the enclosing trace-span label, so slicing per phase is
/// a prefix match on the root frame.
class Profile {
 public:
  /// Self/total sample attribution for one frame. `self` counts samples
  /// whose innermost frame this is; `total` counts samples the frame
  /// appears anywhere in (each stack counted once even under recursion).
  struct FrameStat {
    std::string frame;
    int64_t self = 0;
    int64_t total = 0;
  };

  Profile() = default;

  void AddStack(std::string collapsed_stack, int64_t samples);

  /// Folds `other` into this profile: stack counts add, metadata merges
  /// (sample counts and CPU times sum; a zero period adopts the other's).
  void Merge(const Profile& other);

  const std::map<std::string, int64_t>& stacks() const { return stacks_; }
  int64_t total_samples() const { return total_samples_; }
  int64_t dropped_samples() const { return dropped_samples_; }
  int64_t period_us() const { return period_us_; }
  void set_period_us(int64_t us) { period_us_ = us; }
  /// Process CPU time (CLOCK_PROCESS_CPUTIME_ID) between Profiler::Start
  /// and Stop, in microseconds; 0 when not recorded (a profile parsed from
  /// a file written without it). total_samples() * period_us() is no
  /// substitute: see ProfilerOptions::period_us.
  int64_t cpu_us() const { return cpu_us_; }
  void set_cpu_us(int64_t us) { cpu_us_ = us; }
  void add_dropped_samples(int64_t n) { dropped_samples_ += n; }
  bool empty() const { return stacks_.empty(); }

  /// Per-frame self/total table over every stack, sorted by self samples
  /// descending (ties broken by frame name for a stable order). When
  /// `root_frame` is non-empty only stacks whose first frame equals it
  /// contribute, and the root frame itself is excluded from the table.
  std::vector<FrameStat> SelfTimeTable(std::string_view root_frame = "") const;

  /// Sample count per root frame (= per phase label), sorted by name.
  std::map<std::string, int64_t> SamplesByRootFrame() const;

  /// flamegraph.pl-compatible collapsed-stack text: one "stack count" line
  /// per entry, sorted by stack, trailing newline. Lossless for the stack
  /// map; period/dropped/CPU-time metadata is carried in '#'-prefixed
  /// header lines that flamegraph.pl ignores.
  std::string ToCollapsed() const;

  /// Parses ToCollapsed() output (unknown '#' headers are skipped).
  static Result<Profile> FromCollapsed(std::string_view text);

 private:
  std::map<std::string, int64_t> stacks_;
  int64_t total_samples_ = 0;
  int64_t dropped_samples_ = 0;
  int64_t period_us_ = 0;
  int64_t cpu_us_ = 0;
};

// ---------------------------------------------------------------------------
// Sampling CPU profiler.
// ---------------------------------------------------------------------------

struct ProfilerOptions {
  /// Requested CPU-time interval between SIGPROF samples (setitimer
  /// ITIMER_PROF; the kernel delivers the signal to a currently-running
  /// thread). The kernel checks the timer only at scheduler ticks (4 ms at
  /// CONFIG_HZ=250), so a period below the tick still yields about one
  /// sample per tick of CPU: samples * period then undercounts CPU time,
  /// which Profile::cpu_us() records instead.
  int64_t period_us = 1000;
  /// Deepest frame-pointer walk per sample; deeper stacks are truncated.
  int32_t max_stack_depth = 48;
  /// Raw samples buffered per registered thread between Start and Stop;
  /// once full further samples on that thread are counted as dropped.
  int32_t thread_buffer_capacity = 1 << 16;
};

/// Signal-based sampling CPU profiler. Off by default and zero-cost while
/// off: the only always-on state is one relaxed atomic flag and the
/// per-thread registration bookkeeping. While running, a POSIX interval
/// timer (ITIMER_PROF) delivers SIGPROF to the process; the async-signal-
/// safe handler walks the frame-pointer chain from the interrupted context
/// (validated against the thread's stack bounds, so builds that omit frame
/// pointers degrade to leaf-only samples instead of crashing), tags the
/// sample with the innermost trace-span label, and appends it to a
/// lock-free per-thread buffer. Stop() disarms the timer, drains every
/// buffer, symbolizes unique pcs via dladdr (executables link with
/// ENABLE_EXPORTS so named functions resolve), and folds the samples into
/// a Profile.
///
/// Sampling only observes: it never blocks builder threads, allocates on
/// the sampled path, or changes control flow (SA_RESTART keeps syscalls
/// from surfacing EINTR), so builder outputs stay bit-identical with the
/// sampler armed — tests/profiler_test.cc locks that in.
class Profiler {
 public:
  /// The process-wide profiler instance (there can be only one: SIGPROF
  /// and the interval timer are process-global).
  static Profiler& Default();

  /// Arms the signal handler and interval timer. Registers the calling
  /// thread if it was not already. Fails when already running.
  Status Start(const ProfilerOptions& options = {});

  /// Disarms sampling, drains and symbolizes every registered thread's
  /// buffer, and returns the folded profile. Fails when not running.
  Result<Profile> Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Registers the calling thread for sampling: records its stack bounds
  /// and allocates its sample buffer when the profiler is running (threads
  /// registered while idle get buffers on the next Start). Idempotent.
  /// Worker pools call this on pool entry; unregistered threads that take
  /// a SIGPROF are counted as dropped samples.
  static void RegisterCurrentThread();

  /// Flushes the calling thread's pending samples into the profiler and
  /// releases its buffer. Worker pools call this on pool exit so samples
  /// survive the workers. No-op when the thread never registered.
  static void UnregisterCurrentThread();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
  std::atomic<bool> running_{false};
};

}  // namespace bellwether::obs

#endif  // BELLWETHER_OBS_PROFILER_H_
