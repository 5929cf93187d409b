#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

namespace bellwether::obs {

namespace {

// ---------------------------------------------------------------------------
// Label interning and the per-thread label stack.
//
// Everything the SIGPROF handler and operator new touch is either
// thread-local POD or a lock-free atomic: the interning table (mutex, map)
// is only ever used from normal context when a trace span opens.
// ---------------------------------------------------------------------------

constexpr uint32_t kOverflowLabel = kMaxProfileLabels - 1;
constexpr uint32_t kMaxLabelDepth = 64;

// Bit 0: sampling profiler armed; bit 1: heap tracker armed.
std::atomic<uint32_t> g_capture_flags{0};

struct LabelStack {
  std::atomic<uint32_t> depth{0};
  uint32_t ids[kMaxLabelDepth];
};
thread_local LabelStack t_label_stack;

struct LabelTable {
  std::mutex mu;
  std::map<std::string, uint32_t, std::less<>> ids;
  std::vector<std::string> names;
};

LabelTable& Labels() {
  static LabelTable* table = [] {
    auto* t = new LabelTable();
    t->names.push_back("(no span)");  // id 0
    return t;
  }();
  return *table;
}

// ---------------------------------------------------------------------------
// Sampling state. The handler only ever sees plain statics and its own
// thread's record; the registry (vector of records, pending samples) is
// mutex-guarded and touched from normal context only.
// ---------------------------------------------------------------------------

constexpr uint32_t kMaxStackDepthHard = 64;

// Kept trivial, so `new RawSample[capacity]` leaves the buffer's pages
// untouched until the handler writes them. Value-initializing 64Ki samples
// (34 MB) costs a registering thread ~20 ms of CPU, during which it has no
// record and every sample it takes is dropped as unregistered.
struct RawSample {
  uint32_t depth;
  uint32_t label;
  uintptr_t pcs[kMaxStackDepthHard];
};

struct ThreadRecord {
  std::atomic<RawSample*> buffer{nullptr};
  std::atomic<uint32_t> head{0};
  std::atomic<int64_t> dropped{0};
  uint32_t capacity = 0;
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
};

std::atomic<bool> g_sampling{false};
std::atomic<uint32_t> g_max_depth{48};
std::atomic<int64_t> g_unregistered_dropped{0};

thread_local ThreadRecord* t_record = nullptr;

struct ProfilerState {
  std::mutex mu;
  std::vector<ThreadRecord*> records;
  std::vector<RawSample> pending;  // flushed by unregistering threads
  ProfilerOptions options;
  int64_t start_cpu_us = 0;  // process CPU time at Start
  struct sigaction old_action;
  bool old_action_valid = false;
};

int64_t ProcessCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();
  return *state;
}

// The frame-pointer walk reads raw stack words, which may land in ASan
// redzones or look like races to TSan even though the handler only touches
// its own thread's stack; keep the sanitizers out of the handler.
#if defined(__clang__)
#define BW_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "memory", "undefined")))
#elif defined(__GNUC__)
#define BW_NO_SANITIZE                                       \
  __attribute__((no_sanitize_address, no_sanitize_thread, \
                 no_sanitize_undefined))
#else
#define BW_NO_SANITIZE
#endif

BW_NO_SANITIZE
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* uc_void) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  ThreadRecord* rec = t_record;
  if (rec == nullptr) {
    g_unregistered_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  RawSample* buffer = rec->buffer.load(std::memory_order_acquire);
  const uint32_t head = rec->head.load(std::memory_order_relaxed);
  if (buffer == nullptr || head >= rec->capacity) {
    rec->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  RawSample& sample = buffer[head];

  uintptr_t pc = 0, fp = 0, sp = 0;
  auto* uc = static_cast<ucontext_t*>(uc_void);
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
#endif

  uint32_t depth = 0;
  const uint32_t max_depth =
      std::min(g_max_depth.load(std::memory_order_relaxed),
               kMaxStackDepthHard);
  if (pc != 0 && depth < max_depth) sample.pcs[depth++] = pc;
  // Frame-pointer walk, validated against the thread's stack bounds so a
  // build that omits frame pointers (or a register holding arbitrary data)
  // terminates the walk instead of faulting. Frames must be pointer-aligned
  // and strictly ascend toward the stack base.
  const uintptr_t lo = sp != 0 ? sp : rec->stack_lo;
  const uintptr_t hi = rec->stack_hi;
  uintptr_t frame = fp;
  while (depth < max_depth && frame >= lo && hi > frame &&
         hi - frame >= 2 * sizeof(uintptr_t) &&
         (frame & (sizeof(uintptr_t) - 1)) == 0) {
    const uintptr_t* slots = reinterpret_cast<const uintptr_t*>(frame);
    const uintptr_t ret = slots[1];
    const uintptr_t next = slots[0];
    if (ret == 0) break;
    sample.pcs[depth++] = ret;
    if (next <= frame) break;
    frame = next;
  }
  sample.depth = depth;
  const uint32_t label_depth =
      t_label_stack.depth.load(std::memory_order_relaxed);
  sample.label =
      label_depth == 0 ? kNoProfileLabel
                       : t_label_stack.ids[std::min(label_depth,
                                                    kMaxLabelDepth) - 1];
  rec->head.store(head + 1, std::memory_order_release);
  errno = saved_errno;
}

void ThreadStackBounds(uintptr_t* lo, uintptr_t* hi) {
  *lo = 0;
  *hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    *lo = reinterpret_cast<uintptr_t>(addr);
    *hi = *lo + size;
  }
  pthread_attr_destroy(&attr);
}

// Appends the record's published samples to `out` and resets its head.
// Callers hold the state mutex; the handler may still append concurrently,
// which is safe (we only read slots below the acquired head) but any sample
// it publishes after the head load is dropped by the head reset.
void DrainRecord(ThreadRecord* rec, std::vector<RawSample>* out) {
  RawSample* buffer = rec->buffer.load(std::memory_order_acquire);
  if (buffer == nullptr) return;
  const uint32_t n = rec->head.load(std::memory_order_acquire);
  out->insert(out->end(), buffer, buffer + n);
  rec->head.store(0, std::memory_order_relaxed);
}

std::string Demangle(const char* mangled) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name =
      (status == 0 && demangled != nullptr) ? demangled : mangled;
  std::free(demangled);
  // ';' separates frames in the collapsed format; demangled C++ names
  // never contain it, but be defensive about hand-written symbols.
  std::replace(name.begin(), name.end(), ';', ':');
  return name;
}

// dladdr only consults .dynsym, so internal-linkage functions — anonymous
// namespaces, file statics, outlined lambda clones — come back unnamed even
// though the module's .symtab knows them. Load that table per module, once,
// at symbolization time (Stop holds the state mutex; nothing here runs in
// the signal handler).
struct ModuleSymtab {
  bool is_pie = false;  // ET_DYN: symbol values are base-relative.
  // Sorted by address; parallel name vector keyed by the same index.
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges;  // {addr, size}
  std::vector<std::string> names;
};

ModuleSymtab LoadModuleSymtab(const char* path) {
  ModuleSymtab out;
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return out;
  std::vector<char> bytes;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  if (bytes.size() < sizeof(Elf64_Ehdr)) return out;
  const auto* ehdr = reinterpret_cast<const Elf64_Ehdr*>(bytes.data());
  if (std::memcmp(ehdr->e_ident, ELFMAG, SELFMAG) != 0 ||
      ehdr->e_ident[EI_CLASS] != ELFCLASS64) {
    return out;
  }
  out.is_pie = ehdr->e_type == ET_DYN;
  const size_t shoff = ehdr->e_shoff;
  if (shoff == 0 ||
      shoff + static_cast<size_t>(ehdr->e_shnum) * sizeof(Elf64_Shdr) >
          bytes.size()) {
    return out;
  }
  const auto* shdrs = reinterpret_cast<const Elf64_Shdr*>(&bytes[shoff]);
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges;
  std::vector<std::string> names;
  for (int i = 0; i < ehdr->e_shnum; ++i) {
    if (shdrs[i].sh_type != SHT_SYMTAB && shdrs[i].sh_type != SHT_DYNSYM) {
      continue;
    }
    if (shdrs[i].sh_link >= ehdr->e_shnum) continue;
    const Elf64_Shdr& strs = shdrs[shdrs[i].sh_link];
    if (shdrs[i].sh_offset + shdrs[i].sh_size > bytes.size() ||
        strs.sh_offset + strs.sh_size > bytes.size()) {
      continue;
    }
    const auto* syms =
        reinterpret_cast<const Elf64_Sym*>(&bytes[shdrs[i].sh_offset]);
    const size_t count = shdrs[i].sh_size / sizeof(Elf64_Sym);
    const char* strtab = &bytes[strs.sh_offset];
    for (size_t s = 0; s < count; ++s) {
      if (ELF64_ST_TYPE(syms[s].st_info) != STT_FUNC) continue;
      if (syms[s].st_value == 0 || syms[s].st_name >= strs.sh_size) continue;
      const char* nm = strtab + syms[s].st_name;
      if (*nm == '\0') continue;
      ranges.emplace_back(syms[s].st_value, syms[s].st_size);
      names.emplace_back(nm);
    }
  }
  // Sort both arrays by address via an index permutation.
  std::vector<size_t> order(ranges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ranges[a].first < ranges[b].first;
  });
  out.ranges.reserve(order.size());
  out.names.reserve(order.size());
  for (size_t i : order) {
    out.ranges.push_back(ranges[i]);
    out.names.push_back(std::move(names[i]));
  }
  return out;
}

// Returns the mangled name covering `pc`, or nullptr. `base` is the module
// load base from dladdr (dli_fbase).
const char* LookupStaticSymbol(const char* path, uintptr_t pc,
                               uintptr_t base) {
  static std::map<std::string, ModuleSymtab>* cache =
      new std::map<std::string, ModuleSymtab>();
  auto it = cache->find(path);
  if (it == cache->end()) {
    it = cache->emplace(path, LoadModuleSymtab(path)).first;
  }
  const ModuleSymtab& tab = it->second;
  if (tab.ranges.empty()) return nullptr;
  const uintptr_t rel = tab.is_pie ? pc - base : pc;
  auto hi = std::upper_bound(
      tab.ranges.begin(), tab.ranges.end(), rel,
      [](uintptr_t v, const std::pair<uintptr_t, uintptr_t>& r) {
        return v < r.first;
      });
  if (hi == tab.ranges.begin()) return nullptr;
  const size_t idx = static_cast<size_t>(hi - tab.ranges.begin()) - 1;
  const auto& [addr, size] = tab.ranges[idx];
  // Zero-sized symbols (assembly stubs) get a generous slack window.
  const uintptr_t limit = size != 0 ? size : 4096;
  if (rel - addr >= limit) return nullptr;
  return tab.names[idx].c_str();
}

std::string BaseName(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

std::string DemanglePc(uintptr_t pc) {
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0) {
    if (info.dli_sname != nullptr) return Demangle(info.dli_sname);
    if (info.dli_fname != nullptr) {
      const char* nm = LookupStaticSymbol(
          info.dli_fname, pc, reinterpret_cast<uintptr_t>(info.dli_fbase));
      if (nm != nullptr) return Demangle(nm);
      // Module known, symbol not (stripped, or the vdso which has no
      // on-disk file). Fold all such pcs into one frame per module rather
      // than scattering raw addresses through the profile.
      return "[" + BaseName(info.dli_fname) + "]";
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
  return buf;
}

std::string SanitizeLabel(std::string name) {
  std::replace(name.begin(), name.end(), ';', ':');
  return name;
}

}  // namespace

// ---------------------------------------------------------------------------
// Labels.
// ---------------------------------------------------------------------------

uint32_t InternProfileLabel(std::string_view name) {
  LabelTable& table = Labels();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  if (table.names.size() >= kOverflowLabel) return kOverflowLabel;
  const uint32_t id = static_cast<uint32_t>(table.names.size());
  table.names.emplace_back(name);
  table.ids.emplace(std::string(name), id);
  return id;
}

std::string ProfileLabelName(uint32_t id) {
  if (id == kOverflowLabel) return "(other)";
  LabelTable& table = Labels();
  std::lock_guard<std::mutex> lock(table.mu);
  if (id >= table.names.size()) return "(unknown)";
  return table.names[id];
}

bool ProfileLabelCaptureEnabled() {
  return g_capture_flags.load(std::memory_order_relaxed) != 0;
}

bool PushProfileLabel(uint32_t id) {
  const uint32_t depth = t_label_stack.depth.load(std::memory_order_relaxed);
  if (depth >= kMaxLabelDepth) return false;
  t_label_stack.ids[depth] = id;
  t_label_stack.depth.store(depth + 1, std::memory_order_release);
  return true;
}

void PopProfileLabel() {
  const uint32_t depth = t_label_stack.depth.load(std::memory_order_relaxed);
  if (depth == 0) return;
  t_label_stack.depth.store(depth - 1, std::memory_order_release);
}

uint32_t CurrentProfileLabel() {
  const uint32_t depth = t_label_stack.depth.load(std::memory_order_relaxed);
  if (depth == 0) return kNoProfileLabel;
  return t_label_stack.ids[std::min(depth, kMaxLabelDepth) - 1];
}

namespace internal {

void SetCaptureFlag(uint32_t bit, bool on) {
  if (on) {
    g_capture_flags.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_capture_flags.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Profile.
// ---------------------------------------------------------------------------

void Profile::AddStack(std::string collapsed_stack, int64_t samples) {
  if (samples <= 0) return;
  stacks_[std::move(collapsed_stack)] += samples;
  total_samples_ += samples;
}

void Profile::Merge(const Profile& other) {
  for (const auto& [stack, count] : other.stacks_) {
    stacks_[stack] += count;
  }
  total_samples_ += other.total_samples_;
  dropped_samples_ += other.dropped_samples_;
  cpu_us_ += other.cpu_us_;
  if (period_us_ == 0) period_us_ = other.period_us_;
}

namespace {

// Splits a collapsed stack into its ';'-separated frames.
std::vector<std::string_view> SplitFrames(std::string_view stack) {
  std::vector<std::string_view> frames;
  size_t start = 0;
  while (start <= stack.size()) {
    const size_t sep = stack.find(';', start);
    if (sep == std::string_view::npos) {
      frames.push_back(stack.substr(start));
      break;
    }
    frames.push_back(stack.substr(start, sep - start));
    start = sep + 1;
  }
  return frames;
}

}  // namespace

std::vector<Profile::FrameStat> Profile::SelfTimeTable(
    std::string_view root_frame) const {
  std::map<std::string_view, FrameStat> by_frame;
  for (const auto& [stack, count] : stacks_) {
    std::vector<std::string_view> frames = SplitFrames(stack);
    if (frames.empty()) continue;
    if (!root_frame.empty()) {
      if (frames.front() != root_frame) continue;
      frames.erase(frames.begin());
      if (frames.empty()) continue;
    }
    FrameStat& leaf = by_frame[frames.back()];
    leaf.self += count;
    // Total time: count each stack once per frame even under recursion.
    std::vector<std::string_view> seen(frames);
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (std::string_view f : seen) by_frame[f].total += count;
  }
  std::vector<FrameStat> table;
  table.reserve(by_frame.size());
  for (auto& [frame, stat] : by_frame) {
    stat.frame = std::string(frame);
    table.push_back(std::move(stat));
  }
  std::sort(table.begin(), table.end(),
            [](const FrameStat& a, const FrameStat& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.frame < b.frame;
            });
  return table;
}

std::map<std::string, int64_t> Profile::SamplesByRootFrame() const {
  std::map<std::string, int64_t> out;
  for (const auto& [stack, count] : stacks_) {
    const size_t sep = stack.find(';');
    out[stack.substr(0, sep)] += count;
  }
  return out;
}

std::string Profile::ToCollapsed() const {
  std::string out;
  char line[64];
  std::snprintf(line, sizeof(line), "# period_us %lld\n",
                static_cast<long long>(period_us_));
  out += line;
  std::snprintf(line, sizeof(line), "# dropped_samples %lld\n",
                static_cast<long long>(dropped_samples_));
  out += line;
  std::snprintf(line, sizeof(line), "# cpu_us %lld\n",
                static_cast<long long>(cpu_us_));
  out += line;
  for (const auto& [stack, count] : stacks_) {
    out += stack;
    std::snprintf(line, sizeof(line), " %lld\n",
                  static_cast<long long>(count));
    out += line;
  }
  return out;
}

Result<Profile> Profile::FromCollapsed(std::string_view text) {
  Profile out;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line.front() == '#') {
      // "# key value" metadata headers; unknown keys are skipped.
      std::string header(line.substr(1));
      char key[32];
      long long value = 0;
      if (std::sscanf(header.c_str(), "%31s %lld", key, &value) == 2) {
        if (std::strcmp(key, "period_us") == 0) out.period_us_ = value;
        if (std::strcmp(key, "dropped_samples") == 0) {
          out.dropped_samples_ = value;
        }
        if (std::strcmp(key, "cpu_us") == 0) out.cpu_us_ = value;
      }
      continue;
    }
    const size_t sep = line.find_last_of(' ');
    if (sep == std::string_view::npos || sep == 0 ||
        sep + 1 >= line.size()) {
      return Status::InvalidArgument(
          "collapsed profile: line " + std::to_string(line_no) +
          " is not \"stack count\"");
    }
    char* parse_end = nullptr;
    const std::string count_text(line.substr(sep + 1));
    const long long count = std::strtoll(count_text.c_str(), &parse_end, 10);
    if (parse_end == nullptr || *parse_end != '\0' || count < 0) {
      return Status::InvalidArgument(
          "collapsed profile: bad sample count on line " +
          std::to_string(line_no));
    }
    out.AddStack(std::string(line.substr(0, sep)), count);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Profiler.
// ---------------------------------------------------------------------------

Profiler& Profiler::Default() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

void Profiler::RegisterCurrentThread() {
  if (t_record != nullptr) return;
  auto* rec = new ThreadRecord();
  ThreadStackBounds(&rec->stack_lo, &rec->stack_hi);
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (Default().running()) {
    rec->capacity =
        static_cast<uint32_t>(state.options.thread_buffer_capacity);
    rec->buffer.store(new RawSample[rec->capacity],
                      std::memory_order_release);
  }
  state.records.push_back(rec);
  t_record = rec;
}

void Profiler::UnregisterCurrentThread() {
  ThreadRecord* rec = t_record;
  if (rec == nullptr) return;
  t_record = nullptr;
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  DrainRecord(rec, &state.pending);
  g_unregistered_dropped.fetch_add(
      rec->dropped.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  // Safe to free: the handler only touches this record from its owning
  // thread, and that thread (ours) is past any handler by now.
  delete[] rec->buffer.exchange(nullptr, std::memory_order_acq_rel);
  state.records.erase(
      std::remove(state.records.begin(), state.records.end(), rec),
      state.records.end());
  delete rec;
}

Status Profiler::Start(const ProfilerOptions& options) {
  if (options.period_us <= 0 || options.max_stack_depth <= 0 ||
      options.thread_buffer_capacity <= 0) {
    return Status::InvalidArgument("profiler: options must be positive");
  }
  RegisterCurrentThread();
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (running()) {
    return Status::FailedPrecondition("profiler: already running");
  }
  state.options = options;
  g_max_depth.store(
      std::min<uint32_t>(static_cast<uint32_t>(options.max_stack_depth),
                         kMaxStackDepthHard),
      std::memory_order_relaxed);
  g_unregistered_dropped.store(0, std::memory_order_relaxed);
  state.pending.clear();
  for (ThreadRecord* rec : state.records) {
    if (rec->buffer.load(std::memory_order_relaxed) == nullptr) {
      rec->capacity =
          static_cast<uint32_t>(options.thread_buffer_capacity);
      rec->buffer.store(new RawSample[rec->capacity],
                        std::memory_order_release);
    }
    rec->head.store(0, std::memory_order_relaxed);
    rec->dropped.store(0, std::memory_order_relaxed);
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &SigprofHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &state.old_action) != 0) {
    return Status::Internal("profiler: sigaction(SIGPROF) failed");
  }
  state.old_action_valid = true;

  running_.store(true, std::memory_order_relaxed);
  internal::SetCaptureFlag(1, true);
  g_sampling.store(true, std::memory_order_release);
  state.start_cpu_us = ProcessCpuMicros();

  struct itimerval timer;
  timer.it_interval.tv_sec = options.period_us / 1000000;
  timer.it_interval.tv_usec = options.period_us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_sampling.store(false, std::memory_order_release);
    running_.store(false, std::memory_order_relaxed);
    internal::SetCaptureFlag(1, false);
    sigaction(SIGPROF, &state.old_action, nullptr);
    state.old_action_valid = false;
    return Status::Internal("profiler: setitimer(ITIMER_PROF) failed");
  }
  return Status::OK();
}

Result<Profile> Profiler::Stop() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!running()) {
    return Status::FailedPrecondition("profiler: not running");
  }
  g_sampling.store(false, std::memory_order_release);
  const int64_t cpu_us = ProcessCpuMicros() - state.start_cpu_us;
  struct itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  setitimer(ITIMER_PROF, &timer, nullptr);
  if (state.old_action_valid) {
    sigaction(SIGPROF, &state.old_action, nullptr);
    state.old_action_valid = false;
  }
  running_.store(false, std::memory_order_relaxed);
  internal::SetCaptureFlag(1, false);

  std::vector<RawSample> samples = std::move(state.pending);
  state.pending.clear();
  int64_t dropped = g_unregistered_dropped.load(std::memory_order_relaxed);
  for (ThreadRecord* rec : state.records) {
    DrainRecord(rec, &samples);
    dropped += rec->dropped.load(std::memory_order_relaxed);
    rec->dropped.store(0, std::memory_order_relaxed);
  }

  Profile profile;
  profile.set_period_us(state.options.period_us);
  profile.set_cpu_us(cpu_us);
  profile.add_dropped_samples(dropped);
  // Symbolize each unique pc once. Return addresses (every frame but the
  // leaf) point at the instruction after the call, so they resolve at
  // pc - 1 to land inside the calling function.
  std::map<uintptr_t, std::string> symbol_cache;
  auto symbolize = [&symbol_cache](uintptr_t pc) -> const std::string& {
    auto it = symbol_cache.find(pc);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(pc, DemanglePc(pc)).first;
    }
    return it->second;
  };
  for (const RawSample& sample : samples) {
    std::string stack = SanitizeLabel(ProfileLabelName(sample.label));
    for (uint32_t i = sample.depth; i > 0; --i) {
      const uintptr_t pc = sample.pcs[i - 1];
      stack += ';';
      stack += symbolize(i == 1 ? pc : pc - 1);
    }
    profile.AddStack(std::move(stack), 1);
  }
  return profile;
}

}  // namespace bellwether::obs
