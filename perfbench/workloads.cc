// The two workloads. Each runs the whole life cycle (see harness.h); they
// differ in the dataset and so in which stages dominate:
//   warehouse   §7.1 mail-order star schema: CSV fact table and §4.2
//               training-data generation, cross-validation over 503
//               regions; a 101k-row BellwetherState.
//   scan_build  §7.4 / Fig. 11 scalability data: 0.6M training rows, spilled
//               to disk once in set-up, where the scan-based builders
//               dominate; a 199k-row BellwetherState, where persistence and
//               dirty-cell re-derivation dominate the state stages.
// Generator seeds are fixed, because the generators' output shape (fact
// rows, tree nodes) moves with their seed.

#include "workload.h"

#include <utility>

#include "checks.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "datagen/scalability.h"
#include "layers.h"
#include "obs/trace.h"
#include "table/csv.h"

namespace perfbench {

namespace bw = bellwether;
using bw::Status;

namespace {

bw::core::BasicSearchOptions CvSearch(uint64_t seed, int32_t min_examples) {
  bw::core::BasicSearchOptions o;
  o.estimate = bw::regression::ErrorEstimate::kCrossValidation;
  o.cv_folds = 10;
  o.seed = seed;
  o.min_examples = min_examples;
  o.exec.num_threads = 1;
  return o;
}

bw::core::CubeBuildConfig CvCube(uint64_t seed, int32_t min_subset_size,
                                 int32_t min_examples) {
  bw::core::CubeBuildConfig c;
  c.min_subset_size = min_subset_size;
  c.min_examples_per_model = min_examples;
  c.compute_cv_stats = true;
  c.cv_folds = 10;
  c.seed = seed;
  c.exec.num_threads = 1;
  return c;
}

class Warehouse final : public Workload {
 public:
  explicit Warehouse(uint64_t seed) {
    config.search = CvSearch(seed, 40);
    config.tree.split_columns = {"Category", "ExpenseRange", "RDExpense"};
    config.tree.min_items = 40;
    config.tree.max_depth = 4;
    config.tree.max_numeric_split_points = 8;
    config.tree.min_examples_per_model = 20;
    config.tree.exec.num_threads = 1;
    config.cube = CvCube(seed, 30, 20);
    config.predict_passes = 500;
    config.state_items = 240;
  }

  Status GenerateInput(const std::string& dir) override {
    bw::datagen::MailOrderConfig mail;
    mail.num_items = 400;
    data_ = bw::datagen::GenerateMailOrder(mail);
    csv_path_ = dir + "/fact.csv";
    return bw::table::WriteCsv(data_.fact, csv_path_);
  }

  Status Prepare(bw::storage::TrainingDataSink* sink) override {
    bw::Result<bw::table::Table> fact = Status::OK();
    {
      bw::obs::TraceSpan span("table.read_csv", kBenchCategory);
      fact = bw::table::ReadCsv(csv_path_, data_.fact.schema());
    }
    if (!fact.ok()) return fact.status();
    bw::core::BellwetherSpec spec = data_.MakeSpec(85.0, 0.5);
    spec.fact = &fact.value();
    spec.exec.num_threads = 1;
    bw::obs::TraceSpan span("core.training_data", kBenchCategory);
    return bw::core::GenerateTrainingData(spec, sink).status();
  }

  const bw::table::Table& items() const override { return data_.items; }
  const std::vector<bw::core::ItemHierarchy>& hierarchies() const override {
    return data_.item_hierarchies;
  }

  Status CheckAnswer(const bw::core::BasicSearchResult& search) const override {
    return CheckPickLocation(search, *data_.space, /*location_dim=*/1,
                             data_.planted_state_node);
  }

  void AddInputShape(std::map<std::string, int64_t>* shape) const override {
    (*shape)["fact_rows"] = static_cast<int64_t>(data_.fact.num_rows());
  }

  std::map<std::string, int64_t> ExpectedShape() const override {
    return {{"fact_rows", 142056},
            {"training_rows", 187406},
            {"regions", 503},
            {"items", 400},
            {"tree_nodes", 24},
            {"cube_cells", 21},
            {"state_rows", 101185},
            {"delta_rows", 11235},
            {"dirty_cells_per_batch", 6},
            {"predictions_per_batch", 399000}};
  }

 private:
  bw::datagen::MailOrderDataset data_;
  std::string csv_path_;
};

class ScanBuild final : public Workload {
 public:
  explicit ScanBuild(uint64_t seed) {
    // 169 regions (two {3,3} trees of 13 nodes) x 3550 items = 0.6M rows.
    gen_.num_items = 3550;
    gen_.dim1_fanouts = {3, 3};
    gen_.dim2_fanouts = {3, 3};
    gen_.num_numeric_item_features = 2;
    gen_.item_hierarchy_fanouts = {2};
    config.search = CvSearch(seed, 5);
    config.tree.min_items = 200;
    config.tree.max_depth = 3;
    config.tree.max_numeric_split_points = 4;
    config.tree.min_examples_per_model = 10;
    config.tree.exec.num_threads = 1;
    config.cube = CvCube(seed, 50, 10);
    config.prepare_runs = 12;
    config.predict_passes = 40;
    config.state_items = 1200;
  }

  Status GenerateInput(const std::string&) override {
    bw::storage::MemorySink discard;
    auto meta = bw::datagen::GenerateScalability(gen_, &discard);
    if (!meta.ok()) return meta.status();
    meta_ = std::move(meta).value();
    config.tree.split_columns = meta_.numeric_feature_columns;
    return Status::OK();
  }

  Status Prepare(bw::storage::TrainingDataSink* sink) override {
    bw::obs::TraceSpan span("datagen.generate", kBenchCategory);
    return bw::datagen::GenerateScalability(gen_, sink).status();
  }

  const bw::table::Table& items() const override { return meta_.items; }
  const std::vector<bw::core::ItemHierarchy>& hierarchies() const override {
    return meta_.item_hierarchies;
  }

  std::map<std::string, int64_t> ExpectedShape() const override {
    return {{"training_rows", 599950},
            {"regions", 169},
            {"items", 3550},
            {"tree_nodes", 13},
            {"cube_cells", 27},
            {"state_rows", 198744},
            {"delta_rows", 4056},
            {"dirty_cells_per_batch", 8},
            {"predictions_per_batch", 284000}};
  }

 private:
  bw::datagen::ScalabilityConfig gen_;
  bw::datagen::ScalabilityDataset meta_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "warehouse") return std::make_unique<Warehouse>(seed);
  if (name == "scan_build") return std::make_unique<ScanBuild>(seed);
  return nullptr;
}

}  // namespace perfbench
