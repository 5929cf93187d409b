#include "robust/fault_injection.h"

#include <cstdio>
#include <cstdlib>

#include "common/fingerprint.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace bellwether::robust {

namespace {

// SplitMix64 finalizer — decorrelates (seed, point, arrival) tuples so the
// probabilistic trigger is a high-quality deterministic Bernoulli stream.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

obs::Counter* InjectionCounter() {
  static obs::Counter* c =
      obs::DefaultMetrics().GetCounter(obs::kMFaultInjections);
  return c;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIoError:
      return "io";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kCrash:
      return "crash";
  }
  return "unknown";
}

FaultRegistry& FaultRegistry::Default() {
  static FaultRegistry* instance = [] {
    auto* r = new FaultRegistry();
    if (const char* seed = std::getenv("BELLWETHER_FAULT_SEED")) {
      r->set_seed(std::strtoull(seed, nullptr, 10));
    }
    if (const char* spec = std::getenv("BELLWETHER_FAULTS")) {
      // A malformed env spec must not silently disable fault testing; fail
      // loudly on stderr but keep the process alive (the registry stays
      // disarmed, which is the safe state).
      Status st = r->Arm(spec);
      if (!st.ok()) {
        std::fprintf(stderr, "BELLWETHER_FAULTS ignored: %s\n",
                     st.ToString().c_str());
      }
    }
    return r;
  }();
  return *instance;
}

Status FaultRegistry::Arm(std::string_view spec) {
  std::map<std::string, PointSchedule, std::less<>> parsed;
  for (const std::string& entry : SplitString(spec, ';')) {
    const std::string trimmed(StripAsciiWhitespace(entry));
    if (trimmed.empty()) continue;
    const size_t colon = trimmed.find(':');
    const size_t at = trimmed.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon ||
        colon == 0) {
      return Status::InvalidArgument(
          "fault spec entry must be point:kind@trigger, got '" + trimmed +
          "'");
    }
    const std::string point(StripAsciiWhitespace(trimmed.substr(0, colon)));
    const std::string kind_text(
        StripAsciiWhitespace(trimmed.substr(colon + 1, at - colon - 1)));
    const std::string trigger(StripAsciiWhitespace(trimmed.substr(at + 1)));
    PointSchedule sched;
    if (kind_text == "io") {
      sched.kind = FaultKind::kIoError;
    } else if (kind_text == "corrupt") {
      sched.kind = FaultKind::kCorrupt;
    } else if (kind_text == "crash") {
      sched.kind = FaultKind::kCrash;
    } else {
      return Status::InvalidArgument("unknown fault kind '" + kind_text +
                                     "' in '" + trimmed + "'");
    }
    if (trigger.empty()) {
      return Status::InvalidArgument("empty fault trigger in '" + trimmed +
                                     "'");
    }
    char* end = nullptr;
    if (trigger.find('.') == std::string::npos) {
      const long long n = std::strtoll(trigger.c_str(), &end, 10);
      if (end == trigger.c_str() || *end != '\0' || n <= 0) {
        return Status::InvalidArgument("bad fault count trigger '" + trigger +
                                       "' in '" + trimmed + "'");
      }
      sched.fire_first_n = n;
    } else {
      const double p = std::strtod(trigger.c_str(), &end);
      if (end == trigger.c_str() || *end != '\0' || !(p > 0.0) || p >= 1.0) {
        return Status::InvalidArgument(
            "fault probability must be in (0, 1), got '" + trigger + "' in '" +
            trimmed + "'");
      }
      sched.probability = p;
    }
    parsed[point] = sched;
  }
  std::lock_guard<std::mutex> lock(mu_);
  points_ = std::move(parsed);
  armed_.store(!points_.empty(), std::memory_order_release);
  return Status::OK();
}

void FaultRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_.store(false, std::memory_order_release);
}

void FaultRegistry::set_seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

bool FaultRegistry::ShouldFire(std::string_view point, FaultKind kind) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end() || it->second.kind != kind) return false;
  PointSchedule& s = it->second;
  const int64_t arrival = s.arrivals++;
  bool fire = false;
  if (s.fire_first_n > 0) {
    fire = arrival < s.fire_first_n;
  } else {
    const uint64_t name = FingerprintBuilder().AddBytes(point).value();
    const uint64_t h = Mix64(seed_ ^ name ^ static_cast<uint64_t>(arrival));
    // Top 53 bits -> uniform double in [0, 1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    fire = u < s.probability;
  }
  if (fire) {
    ++s.fires;
    InjectionCounter()->Increment();
  }
  return fire;
}

int64_t FaultRegistry::arrivals(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.arrivals;
}

int64_t FaultRegistry::fires(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

int64_t FaultRegistry::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, s] : points_) total += s.fires;
  return total;
}

std::vector<std::string> FaultRegistry::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, s] : points_) out.push_back(name);
  return out;
}

Status MaybeInjectIo(std::string_view point) {
  if (FaultRegistry::Default().ShouldFire(point, FaultKind::kIoError)) {
    return Status::IoError("injected transient I/O fault at " +
                           std::string(point));
  }
  return Status::OK();
}

bool ShouldCorrupt(std::string_view point) {
  return FaultRegistry::Default().ShouldFire(point, FaultKind::kCorrupt);
}

bool ShouldCrash(std::string_view point) {
  return FaultRegistry::Default().ShouldFire(point, FaultKind::kCrash);
}

}  // namespace bellwether::robust
