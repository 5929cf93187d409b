#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "datagen/book_store.h"
#include "datagen/hierarchy_util.h"
#include "datagen/mail_order.h"
#include "datagen/scalability.h"
#include "datagen/simulation.h"
#include "test_util.h"

namespace bellwether::datagen {
namespace {

TEST(HierarchyUtilTest, BalancedHierarchyShape) {
  auto dim = BuildBalancedHierarchy("D", "Root", {3, 2}, "X");
  // 1 root + 3 + 6.
  EXPECT_EQ(dim.num_nodes(), 10);
  EXPECT_EQ(dim.leaves().size(), 6u);
  EXPECT_EQ(dim.max_depth(), 2);
}

TEST(HierarchyUtilTest, UsCensusHierarchy) {
  auto dim = BuildUsCensusLocationHierarchy();
  EXPECT_EQ(dim.leaves().size(), 50u);  // 50 states
  ASSERT_TRUE(dim.FindNode("MD").ok());
  ASSERT_TRUE(dim.FindNode("WI").ok());
  const auto md = *dim.FindNode("MD");
  EXPECT_EQ(dim.label(dim.parent(md)), "SouthAtlantic");
  EXPECT_EQ(dim.depth(md), 3);
}

TEST(MailOrderTest, DeterministicForFixedSeed) {
  MailOrderConfig config;
  config.num_items = 20;
  config.density = 0.4;
  MailOrderDataset a = GenerateMailOrder(config);
  MailOrderDataset b = GenerateMailOrder(config);
  EXPECT_EQ(a.fact.num_rows(), b.fact.num_rows());
  ASSERT_GT(a.fact.num_rows(), 0u);
  EXPECT_DOUBLE_EQ(a.fact.ColumnByName("Profit").DoubleAt(0),
                   b.fact.ColumnByName("Profit").DoubleAt(0));
  EXPECT_EQ(a.planted_region, b.planted_region);
}

TEST(MailOrderTest, SchemaAndShapes) {
  MailOrderConfig config;
  config.num_items = 25;
  config.density = 0.4;
  MailOrderDataset d = GenerateMailOrder(config);
  EXPECT_EQ(d.items.num_rows(), 25u);
  EXPECT_EQ(d.catalogs.num_rows(), 40u);
  EXPECT_EQ(d.space->num_dims(), 2u);
  EXPECT_EQ(d.space->NumRegions(), 10 * 64);  // 10 windows x 64 nodes
  // The planted region decodes to the planted state at 8 months.
  const auto coords = d.space->Decode(d.planted_region);
  EXPECT_EQ(coords[0], 7);  // window [1-8]
  EXPECT_EQ(coords[1], d.planted_state_node);
  // Spec assembles and references resolve.
  auto spec = d.MakeSpec(50.0, 0.1);
  EXPECT_EQ(spec.regional_features.size(), 4u);
  EXPECT_EQ(spec.references.count("catalogs"), 1u);
}

TEST(MailOrderTest, ItemHierarchyLabelsMatchItemColumns) {
  MailOrderConfig config;
  config.num_items = 30;
  config.density = 0.3;
  MailOrderDataset d = GenerateMailOrder(config);
  for (const auto& ih : d.item_hierarchies) {
    const auto& col = d.items.ColumnByName(ih.column);
    for (size_t r = 0; r < d.items.num_rows(); ++r) {
      auto node = ih.dim.FindNode(col.StringAt(r));
      ASSERT_TRUE(node.ok()) << col.StringAt(r);
      EXPECT_TRUE(ih.dim.IsLeaf(*node));
    }
  }
}

TEST(BookStoreTest, ShapesAndDeterminism) {
  BookStoreConfig config;
  config.num_books = 40;
  BookStoreDataset a = GenerateBookStore(config);
  BookStoreDataset b = GenerateBookStore(config);
  EXPECT_EQ(a.fact.num_rows(), b.fact.num_rows());
  EXPECT_EQ(a.items.num_rows(), 40u);
  // 12 windows x (1 + 5 states + 20 cities) nodes.
  EXPECT_EQ(a.space->NumRegions(), 12 * 26);
  auto spec = a.MakeSpec(100.0, 0.1);
  EXPECT_EQ(spec.regional_features.size(), 2u);
}

TEST(SimulationTest, ShapesAndGroundTruth) {
  SimulationConfig config;
  config.num_items = 50;
  config.generator_tree_nodes = 7;
  config.num_windows = 3;
  config.location_fanouts = {2};
  SimulationDataset d = GenerateSimulation(config);
  EXPECT_EQ(d.targets.size(), 50u);
  EXPECT_EQ(d.space->NumRegions(), 3 * 3);  // 3 windows x (root + 2 leaves)
  EXPECT_EQ(d.sets.size(), 9u);
  EXPECT_EQ(d.feature_columns.size(), 8u);
  EXPECT_EQ(d.item_hierarchies.size(), 3u);
  for (auto r : d.true_region_of_item) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, d.space->NumRegions());
  }
  // Every region's training set covers all items with an intercept column.
  for (const auto& set : d.sets) {
    EXPECT_EQ(set.num_examples(), 50u);
    EXPECT_EQ(set.num_features, 5);
    EXPECT_DOUBLE_EQ(set.row(0)[0], 1.0);
  }
}

TEST(SimulationTest, NoiseKnobControlsResidualVariance) {
  SimulationConfig quiet;
  quiet.num_items = 400;
  quiet.noise = 0.05;
  quiet.seed = 5;
  SimulationConfig loud = quiet;
  loud.noise = 2.0;
  SimulationDataset dq = GenerateSimulation(quiet);
  SimulationDataset dl = GenerateSimulation(loud);
  // Identical structure (same seed drives the same draws), so comparing the
  // dispersion of targets around their means is meaningful.
  auto variance = [](const std::vector<double>& v) {
    double mean = 0.0;
    for (double x : v) mean += x;
    mean /= v.size();
    double var = 0.0;
    for (double x : v) var += (x - mean) * (x - mean);
    return var / v.size();
  };
  EXPECT_GT(variance(dl.targets), variance(dq.targets) * 0.9);
}

TEST(SimulationTest, TreeSizeControlsDistinctPlantedRegions) {
  SimulationConfig small;
  small.num_items = 200;
  small.generator_tree_nodes = 3;
  small.seed = 9;
  SimulationConfig big = small;
  big.generator_tree_nodes = 31;
  SimulationDataset ds = GenerateSimulation(small);
  SimulationDataset db = GenerateSimulation(big);
  std::set<olap::RegionId> rs(ds.true_region_of_item.begin(),
                              ds.true_region_of_item.end());
  std::set<olap::RegionId> rb(db.true_region_of_item.begin(),
                              db.true_region_of_item.end());
  EXPECT_LE(rs.size(), 2u);  // a 3-node tree has 2 leaves
  EXPECT_GT(rb.size(), rs.size());
}

TEST(ScalabilityTest, MemoryGeneration) {
  ScalabilityConfig config;
  config.num_items = 100;
  config.dim1_fanouts = {2};
  config.dim2_fanouts = {2};
  storage::MemorySink sink;
  auto d = GenerateScalability(config, &sink);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->num_regions, 9);  // (1+2) * (1+2)
  EXPECT_EQ(sink.sets_appended(), 9);
  EXPECT_EQ(d->total_examples, 900);
  EXPECT_EQ(d->items.num_rows(), 100u);
  EXPECT_EQ(d->numeric_feature_columns.size(), 4u);
  EXPECT_EQ(d->item_hierarchies.size(), 3u);
}

TEST(ScalabilityTest, SpillGenerationMatchesMemory) {
  ScalabilityConfig config;
  config.num_items = 50;
  config.dim1_fanouts = {2};
  config.dim2_fanouts = {2};
  storage::MemorySink mem_sink;
  ASSERT_TRUE(GenerateScalability(config, &mem_sink).ok());
  auto mem_src = mem_sink.Finish();
  ASSERT_TRUE(mem_src.ok());
  const std::string path = TestTempPath("scal_spill.bin");
  auto spill_sink = storage::SpillSink::Create(path);
  ASSERT_TRUE(spill_sink.ok());
  ASSERT_TRUE(GenerateScalability(config, spill_sink->get()).ok());
  auto src = (*spill_sink)->Finish();
  ASSERT_TRUE(src.ok());
  ASSERT_EQ((*src)->num_region_sets(), (*mem_src)->num_region_sets());
  for (size_t i = 0; i < (*mem_src)->num_region_sets(); ++i) {
    auto s = (*src)->Read(i);
    auto m = (*mem_src)->Read(i);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(s->region, m->region);
    EXPECT_EQ(s->features, m->features);
    EXPECT_EQ(s->targets, m->targets);
  }
  std::remove(path.c_str());
}

TEST(ScalabilityTest, RejectsNullSink) {
  ScalabilityConfig config;
  EXPECT_FALSE(GenerateScalability(config, nullptr).ok());
}

}  // namespace
}  // namespace bellwether::datagen
