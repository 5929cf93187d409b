// profdump: renders and diffs collapsed-stack CPU profiles written by the
// bench drivers' --profile-out flag (docs/OBSERVABILITY.md "Profiling").
// The input is flamegraph.pl-compatible text, one "stack count" line per
// folded stack with ';'-separated frames, the first frame being the
// enclosing trace-span label (phase).
//
//   profdump [flags] <profile.txt>           render one profile
//   profdump --diff [flags] <old> <new>      compare two profiles
//
// Flags:
//   --top=<n>        rows per self-time table (default 15)
//   --phase=<label>  restrict the self-time table to one phase label
//   --tree           also render the aggregated call tree (branches below
//                    --tree-min-pct=<f> percent of total are pruned, 0.5
//                    by default)
//
// Exit codes: 0 = ok, 2 = usage / parse error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/profiler.h"

namespace {

using bellwether::Result;
using bellwether::obs::Profile;

void Usage() {
  std::fprintf(stderr,
               "usage: profdump [--top=N] [--phase=LABEL] [--tree] "
               "[--tree-min-pct=F] <profile.txt>\n"
               "       profdump --diff [--top=N] <old.txt> <new.txt>\n");
}

Result<Profile> Load(const char* path) {
  auto text = bellwether::obs::ReadTextFile(path);
  if (!text.ok()) return text.status();
  return Profile::FromCollapsed(*text);
}

double Pct(int64_t part, int64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

void PrintHeader(const char* path, const Profile& profile) {
  std::printf("%s: %lld samples", path,
              static_cast<long long>(profile.total_samples()));
  if (profile.cpu_us() > 0) {
    std::printf(", %lldus period, %.2fs CPU",
                static_cast<long long>(profile.period_us()),
                static_cast<double>(profile.cpu_us()) * 1e-6);
  } else if (profile.period_us() > 0) {
    // A file without the recorded CPU time: samples * period, which
    // undercounts when the period is below the kernel's tick.
    std::printf(", %lldus period (~%.2fs CPU)",
                static_cast<long long>(profile.period_us()),
                static_cast<double>(profile.total_samples()) *
                    static_cast<double>(profile.period_us()) * 1e-6);
  }
  if (profile.dropped_samples() > 0) {
    std::printf(", %lld dropped",
                static_cast<long long>(profile.dropped_samples()));
  }
  std::printf("\n");
}

void PrintPhaseTable(const Profile& profile) {
  std::printf("\nsamples by phase (root span label)\n");
  std::printf("%8s %7s  %s\n", "samples", "%", "phase");
  for (const auto& [phase, samples] : profile.SamplesByRootFrame()) {
    std::printf("%8lld %6.1f%%  %s\n", static_cast<long long>(samples),
                Pct(samples, profile.total_samples()), phase.c_str());
  }
}

void PrintSelfTable(const Profile& profile, const std::string& phase,
                    int top) {
  if (phase.empty()) {
    std::printf("\ntop self-time frames (all phases)\n");
  } else {
    std::printf("\ntop self-time frames in phase \"%s\"\n", phase.c_str());
  }
  std::printf("%8s %7s %8s  %s\n", "self", "self%", "total", "frame");
  const auto table = profile.SelfTimeTable(phase);
  int rows = 0;
  for (const auto& stat : table) {
    if (rows++ >= top) break;
    std::printf("%8lld %6.1f%% %8lld  %s\n",
                static_cast<long long>(stat.self),
                Pct(stat.self, profile.total_samples()),
                static_cast<long long>(stat.total), stat.frame.c_str());
  }
  if (table.empty()) std::printf("(no samples)\n");
}

// Aggregated call tree, rendered root-down with per-branch sample counts.
struct TreeNode {
  int64_t self = 0;
  int64_t total = 0;
  std::map<std::string, TreeNode> children;
};

void PrintTree(const TreeNode& node, const std::string& name, int depth,
               int64_t grand_total, double min_pct) {
  if (Pct(node.total, grand_total) < min_pct) return;
  std::printf("%8lld %6.1f%%  %*s%s", static_cast<long long>(node.total),
              Pct(node.total, grand_total), 2 * depth, "", name.c_str());
  if (node.self > 0 && !node.children.empty()) {
    std::printf(" [self %lld]", static_cast<long long>(node.self));
  }
  std::printf("\n");
  // Children sorted by weight so the hot path reads top-down.
  std::vector<std::pair<const std::string*, const TreeNode*>> kids;
  kids.reserve(node.children.size());
  for (const auto& [child_name, child] : node.children) {
    kids.emplace_back(&child_name, &child);
  }
  std::sort(kids.begin(), kids.end(), [](const auto& a, const auto& b) {
    if (a.second->total != b.second->total) {
      return a.second->total > b.second->total;
    }
    return *a.first < *b.first;
  });
  for (const auto& [child_name, child] : kids) {
    PrintTree(*child, *child_name, depth + 1, grand_total, min_pct);
  }
}

void PrintCallTree(const Profile& profile, double min_pct) {
  TreeNode root;
  root.total = profile.total_samples();
  for (const auto& [stack, count] : profile.stacks()) {
    TreeNode* node = &root;
    size_t start = 0;
    while (start <= stack.size()) {
      const size_t sep = stack.find(';', start);
      const std::string frame =
          stack.substr(start, sep == std::string::npos ? sep : sep - start);
      node = &node->children[frame];
      node->total += count;
      if (sep == std::string::npos) {
        node->self += count;
        break;
      }
      start = sep + 1;
    }
  }
  std::printf("\ncall tree (branches under %.1f%% pruned)\n", min_pct);
  std::printf("%8s %7s  %s\n", "total", "%", "frame");
  std::vector<std::pair<const std::string*, const TreeNode*>> roots;
  for (const auto& [name, child] : root.children) {
    roots.emplace_back(&name, &child);
  }
  std::sort(roots.begin(), roots.end(), [](const auto& a, const auto& b) {
    if (a.second->total != b.second->total) {
      return a.second->total > b.second->total;
    }
    return *a.first < *b.first;
  });
  for (const auto& [name, child] : roots) {
    PrintTree(*child, *name, 0, profile.total_samples(), min_pct);
  }
}

// Diff: per-frame self-time shares of two profiles, sorted by the absolute
// change in share so the biggest movers lead regardless of run length.
int DiffProfiles(const char* old_path, const char* new_path, int top) {
  auto old_profile = Load(old_path);
  if (!old_profile.ok()) {
    std::fprintf(stderr, "profdump: %s: %s\n", old_path,
                 old_profile.status().ToString().c_str());
    return 2;
  }
  auto new_profile = Load(new_path);
  if (!new_profile.ok()) {
    std::fprintf(stderr, "profdump: %s: %s\n", new_path,
                 new_profile.status().ToString().c_str());
    return 2;
  }
  PrintHeader(old_path, *old_profile);
  PrintHeader(new_path, *new_profile);

  struct Shares {
    int64_t old_self = 0;
    int64_t new_self = 0;
    double old_pct = 0.0;
    double new_pct = 0.0;
  };
  std::map<std::string, Shares> frames;
  for (const auto& stat : old_profile->SelfTimeTable()) {
    Shares& s = frames[stat.frame];
    s.old_self = stat.self;
    s.old_pct = Pct(stat.self, old_profile->total_samples());
  }
  for (const auto& stat : new_profile->SelfTimeTable()) {
    Shares& s = frames[stat.frame];
    s.new_self = stat.self;
    s.new_pct = Pct(stat.self, new_profile->total_samples());
  }
  std::vector<std::pair<std::string, Shares>> sorted(frames.begin(),
                                                     frames.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    const double da = std::abs(a.second.new_pct - a.second.old_pct);
    const double db = std::abs(b.second.new_pct - b.second.old_pct);
    if (da != db) return da > db;
    return a.first < b.first;
  });
  std::printf("\nself-time share change (old -> new, by |delta|)\n");
  std::printf("%8s %8s %8s  %s\n", "old%", "new%", "delta", "frame");
  int rows = 0;
  for (const auto& [frame, s] : sorted) {
    if (rows++ >= top) break;
    std::printf("%7.2f%% %7.2f%% %+7.2f%%  %s\n", s.old_pct, s.new_pct,
                s.new_pct - s.old_pct, frame.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  bool tree = false;
  int top = 15;
  double tree_min_pct = 0.5;
  std::string phase;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--diff") == 0) {
      diff = true;
    } else if (std::strcmp(arg, "--tree") == 0) {
      tree = true;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      top = std::atoi(arg + 6);
      if (top <= 0) {
        std::fprintf(stderr, "profdump: bad --top\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--tree-min-pct=", 15) == 0) {
      tree_min_pct = std::atof(arg + 15);
    } else if (std::strncmp(arg, "--phase=", 8) == 0) {
      phase = arg + 8;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "profdump: unknown flag %s\n", arg);
      Usage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (diff) {
    if (positional.size() != 2) {
      Usage();
      return 2;
    }
    return DiffProfiles(positional[0], positional[1], top);
  }

  if (positional.size() != 1) {
    Usage();
    return 2;
  }
  auto profile = Load(positional[0]);
  if (!profile.ok()) {
    std::fprintf(stderr, "profdump: %s: %s\n", positional[0],
                 profile.status().ToString().c_str());
    return 2;
  }
  PrintHeader(positional[0], *profile);
  PrintPhaseTable(*profile);
  PrintSelfTable(*profile, phase, top);
  if (tree) PrintCallTree(*profile, tree_min_pct);
  return 0;
}
