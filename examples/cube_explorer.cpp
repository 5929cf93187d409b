// Bellwether cube as an exploratory tool (§6.2): builds the cube over the
// mail-order item hierarchies and walks the rollup/drilldown levels,
// printing the cross-tabulation a data-cube UI would show — for each cell
// (item subset), the subset's bellwether region and its model error.

#include <cstdio>

#include "core/bellwether_cube.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "storage/training_data.h"

using namespace bellwether;  // NOLINT: example brevity

namespace {

void PrintLevel(const core::BellwetherCube& cube,
                const olap::RegionSpace* region_space,
                const std::vector<int32_t>& depths, const char* title) {
  std::printf("\n-- %s --\n", title);
  std::printf("  %-32s %-8s %-16s %s\n", "item subset", "|S|",
              "bellwether", "train rmse");
  for (const auto& row : cube.CrossTab(depths, region_space)) {
    std::printf("  %-32s %-8d %-16s %.0f\n", row.subset_label.c_str(),
                row.subset_size, row.region_label.c_str(), row.error);
  }
}

}  // namespace

int main() {
  datagen::MailOrderConfig config;
  config.num_items = 300;
  config.seed = 23;
  const datagen::MailOrderDataset dataset = datagen::GenerateMailOrder(config);
  const core::BellwetherSpec spec = dataset.MakeSpec(/*budget=*/60.0,
                                                     /*min_coverage=*/0.5);
  auto data = core::GenerateTrainingDataInMemory(spec);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  auto subsets =
      core::ItemSubsetSpace::Create(dataset.items, dataset.item_hierarchies);
  if (!subsets.ok()) {
    std::fprintf(stderr, "%s\n", subsets.status().ToString().c_str());
    return 1;
  }
  core::CubeBuildConfig cube_config;
  cube_config.min_subset_size = 25;
  cube_config.min_examples_per_model = 20;
  cube_config.compute_cv_stats = true;
  auto cube = core::BuildBellwetherCubeOptimized(data->source.get(), *subsets,
                                                 cube_config);
  if (!cube.ok()) {
    std::fprintf(stderr, "%s\n", cube.status().ToString().c_str());
    return 1;
  }
  std::printf("bellwether cube: %zu significant cells over %lld subsets\n",
              cube->cells().size(),
              static_cast<long long>((*subsets)->NumSubsets()));

  // Rollup/drilldown walk, coarse to fine. The item hierarchies are
  // Category (All -> Division -> Category) and ExpenseRange (All -> Range).
  PrintLevel(*cube, spec.space, {0, 0}, "rollup: [All, All]");
  PrintLevel(*cube, spec.space, {1, 0}, "drill down: [Division, All]");
  PrintLevel(*cube, spec.space, {2, 0}, "drill down: [Category, All]");
  PrintLevel(*cube, spec.space, {1, 1}, "cross: [Division, Range]");
  PrintLevel(*cube, spec.space, {2, 1}, "base: [Category, Range]");

  // Item-centric prediction through the cube.
  const core::RegionFeatureLookup lookup(data->memory_sets());
  std::printf("\nprediction for three items (95%% confidence rule):\n");
  for (int32_t item : {0, 1, 2}) {
    auto p = cube->PredictItem(item, lookup, 0.95);
    if (!p.ok()) continue;
    std::printf("  item %lld: subset %s, region %s -> predicted %.0f "
                "(actual %.0f), %d better-bound candidate(s) skipped\n",
                static_cast<long long>(data->profile.items.IdAt(item)),
                (*subsets)->SubsetLabel(p->subset).c_str(),
                spec.space->RegionLabel(p->region).c_str(), p->value,
                data->profile.targets[item], p->candidates_skipped);
  }
  return 0;
}
