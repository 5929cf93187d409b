#ifndef BELLWETHER_CORE_TRAINING_DATA_GEN_H_
#define BELLWETHER_CORE_TRAINING_DATA_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/spec.h"
#include "olap/cube.h"
#include "olap/iceberg.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"

namespace bellwether::core {

/// Everything derived from the historical database *except* the training
/// sets themselves: the item dictionary, per-item targets, per-region
/// cost/coverage, the feasible region set, and quarantine stats. The sets
/// stream into a caller-supplied TrainingDataSink during generation, so the
/// profile stays lightweight no matter how large "the entire training data"
/// (paper §5.2) is.
struct TrainingDataProfile {
  olap::ItemDictionary items;
  /// Target value per dense item index; NaN when the item has no target
  /// (such items are excluded from every training set).
  std::vector<double> targets;
  /// Feature names of the design matrix (intercept, item features, regional
  /// features).
  std::vector<std::string> feature_names;
  /// Indexed by RegionId (over the whole region space).
  std::vector<double> region_costs;
  std::vector<double> region_coverage;
  olap::FeasibleRegions feasible;
  /// Fact rows quarantined during the scan (see BellwetherSpec::row_policy);
  /// zero on clean data.
  robust::QuarantineStats row_quarantine;

  /// Index of the given region's training set within the emitted stream, or
  /// -1. Binary search: sets are emitted 1:1 with `feasible.regions`, which
  /// is ascending.
  int64_t FindSet(olap::RegionId region) const;
};

/// Profile plus the finished source over the emitted sets — what most
/// callers want. Produced by GenerateTrainingDataInMemory (or by pairing
/// GenerateTrainingData with any sink and calling Finish yourself).
struct GeneratedTrainingData {
  TrainingDataProfile profile;
  std::unique_ptr<storage::TrainingDataSource> source;

  int64_t FindSet(olap::RegionId region) const {
    return profile.FindSet(region);
  }

  /// Direct view of the region sets when `source` is memory-backed
  /// (MemorySink, or a BudgetedSink that never spilled); nullptr for a
  /// disk-backed source.
  const std::vector<storage::RegionTrainingSet>* memory_sets() const;
};

/// Checks that the spec names every table it needs and that each column it
/// names exists with a type its role allows: int64 item ids, dimension
/// coordinates and foreign keys; numeric targets and measures. A missing
/// column is kNotFound; a missing table or a wrong type is kInvalidArgument.
Status ValidateSpec(const BellwetherSpec& spec);

/// Hash index over a reference table's primary key: key -> row. Fails on a
/// missing or non-int64 key column and on a duplicate key; null keys are
/// skipped.
Result<std::unordered_map<int64_t, size_t>> BuildKeyIndex(
    const table::Table& ref, const std::string& key_column);

/// Generates all training sets with one pass over the fact table plus one
/// cube rollup per feature query — the single-OLAP-query evaluation strategy
/// of §4.2 (rewrite to CUBE aggregates, then join the per-feature cubes and
/// apply the iceberg constraints). Region sets are emitted into `sink` in
/// ascending RegionId order as they are assembled (in parallel when
/// spec.exec asks for it — bit-identical to serial at any thread count);
/// the caller finalizes the sink. The sink is left unfinished on error.
Result<TrainingDataProfile> GenerateTrainingData(
    const BellwetherSpec& spec, storage::TrainingDataSink* sink);

/// Convenience wrapper: generates through a MemorySink and finishes it,
/// returning the profile together with the in-memory source.
Result<GeneratedTrainingData> GenerateTrainingDataInMemory(
    const BellwetherSpec& spec);

/// Reference implementation of the *original* (un-rewritten) feature queries
/// of §4.1 for a single region: evaluates
///   alpha_f sigma_{ID=i, Z in r} F        (and the join / pi_FK variants)
/// with plain relational operators, region by region and item by item. Used
/// to validate the cube path (the §4.2 rewrite equivalence) and as the
/// "iterate through all candidate regions, issue a query per region"
/// strawman. The returned set contains exactly the items of I_r that have a
/// target.
Result<storage::RegionTrainingSet> GenerateRegionTrainingSetNaive(
    const BellwetherSpec& spec, olap::RegionId region);

/// Like GenerateRegionTrainingSetNaive, but over an arbitrary collection of
/// finest-grained cells instead of an OLAP region — the random-sampling
/// baseline of Fig. 7 draws such collections.
Result<storage::RegionTrainingSet> GenerateCellSetTrainingSet(
    const BellwetherSpec& spec, const std::vector<int64_t>& finest_cells);

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_TRAINING_DATA_GEN_H_
