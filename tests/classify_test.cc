#include <gtest/gtest.h>

#include <cmath>

#include "classify/error.h"
#include "classify/gaussian_nb.h"
#include "common/random.h"
#include "core/classification_search.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "storage/training_data.h"

namespace bellwether::classify {
namespace {

// Two well-separated Gaussian blobs in 2D.
LabeledDataset MakeBlobs(int n_per_class, double separation, uint64_t seed) {
  Rng rng(seed);
  LabeledDataset data;
  data.num_features = 2;
  for (int i = 0; i < n_per_class; ++i) {
    data.Add({rng.NextGaussian(), rng.NextGaussian()}, 0);
    data.Add({separation + rng.NextGaussian(),
              separation + rng.NextGaussian()},
             1);
  }
  return data;
}

TEST(GaussianNbTest, SeparableBlobsClassifyPerfectly) {
  const LabeledDataset data = MakeBlobs(200, 10.0, 1);
  NbSuffStats stats(2, 2);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    stats.Add(data.row(i), data.y[i]);
  }
  auto model = stats.Fit();
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(MisclassificationRate(*model, data), 0.0);
}

TEST(GaussianNbTest, OverlappingBlobsErrAroundBayesRate) {
  // Separation 2 with unit variances: Bayes error = Phi(-sep/(2*sigma))
  // per axis combined ~ 0.078 for the 2D diagonal shift of 2.
  const LabeledDataset data = MakeBlobs(3000, 2.0, 2);
  NbSuffStats stats(2, 2);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    stats.Add(data.row(i), data.y[i]);
  }
  auto model = stats.Fit();
  ASSERT_TRUE(model.ok());
  const double rate = MisclassificationRate(*model, data);
  EXPECT_GT(rate, 0.03);
  EXPECT_LT(rate, 0.13);
}

TEST(GaussianNbTest, PriorsMatter) {
  // 90/10 class balance with identical feature distributions: the model
  // should always predict the majority class.
  Rng rng(3);
  LabeledDataset data;
  data.num_features = 1;
  for (int i = 0; i < 1000; ++i) {
    data.Add({rng.NextGaussian()}, i % 10 == 0 ? 1 : 0);
  }
  NbSuffStats stats(1, 2);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    stats.Add(data.row(i), data.y[i]);
  }
  auto model = stats.Fit();
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(MisclassificationRate(*model, data), 0.1, 0.02);
}

TEST(GaussianNbTest, EmptyClassGetsZeroPrior) {
  LabeledDataset data;
  data.num_features = 1;
  data.Add({0.0}, 0);
  data.Add({1.0}, 0);
  NbSuffStats stats(1, 3);  // classes 1 and 2 unseen
  for (size_t i = 0; i < data.num_examples(); ++i) {
    stats.Add(data.row(i), data.y[i]);
  }
  auto model = stats.Fit();
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict(std::vector<double>{0.5}), 0);
}

TEST(GaussianNbTest, FitFailsOnEmpty) {
  NbSuffStats stats(2, 2);
  EXPECT_FALSE(stats.Fit().ok());
}

TEST(NbErrorTest, CrossValidationTracksTrainingOnEasyData) {
  const LabeledDataset data = MakeBlobs(300, 6.0, 5);
  Rng rng(1);
  auto cv = CrossValidateNb(data, 2, 10, &rng);
  auto tr = TrainingErrorNb(data, 2);
  ASSERT_TRUE(cv.ok());
  ASSERT_TRUE(tr.ok());
  EXPECT_LT(cv->rmse, 0.02);
  EXPECT_LT(tr->rmse, 0.02);
}

TEST(NbErrorTest, CvRejectsTinyInput) {
  LabeledDataset data;
  data.num_features = 1;
  data.Add({0.0}, 0);
  Rng rng(1);
  EXPECT_FALSE(CrossValidateNb(data, 2, 10, &rng).ok());
}

}  // namespace
}  // namespace bellwether::classify

namespace bellwether::core {
namespace {

TEST(ClassificationSearchTest, FindsPlantedStateForProfitabilityLabels) {
  datagen::MailOrderConfig config;
  config.num_items = 120;
  config.density = 1.0;
  config.seed = 201;
  const datagen::MailOrderDataset dataset = datagen::GenerateMailOrder(config);
  const BellwetherSpec spec = dataset.MakeSpec(60.0, 0.5);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());
  storage::TrainingDataSource& source = *data->source;

  ClassificationOptions options;
  options.labeler = ThresholdLabeler(MedianTarget(data->profile.targets));
  options.num_classes = 2;
  options.cv_folds = 5;
  options.min_examples = 40;
  auto result = RunClassificationBellwetherSearch(&source, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->found());
  // "Will the item clear median profit?" is best answered from the planted
  // state, whose features track the total cleanly.
  EXPECT_EQ(spec.space->Decode(result->bellwether)[1],
            dataset.planted_state_node)
      << spec.space->RegionLabel(result->bellwether);
  EXPECT_LT(result->error.rmse, 0.5 * result->AverageError());
  // The refit model predicts sensibly on its own region's data.
  const int64_t idx = data->FindSet(result->bellwether);
  ASSERT_GE(idx, 0);
  const auto& set = (*data->memory_sets())[idx];
  int64_t correct = 0;
  for (size_t i = 0; i < set.num_examples(); ++i) {
    const int32_t label = options.labeler(set.targets[i]);
    if (result->model.Predict(set.row(i)) == label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / set.num_examples(), 0.75);
}

TEST(ClassificationSearchTest, ValidatesOptions) {
  storage::MemoryTrainingData source({});
  ClassificationOptions options;
  EXPECT_FALSE(RunClassificationBellwetherSearch(&source, options).ok());
  options.labeler = ThresholdLabeler(0.0);
  options.num_classes = 1;
  EXPECT_FALSE(RunClassificationBellwetherSearch(&source, options).ok());
}

TEST(ClassificationSearchTest, MedianTargetIgnoresNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(MedianTarget({1.0, nan, 3.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(MedianTarget({1.0, 2.0, 3.0, 4.0}), 2.5);
}

}  // namespace
}  // namespace bellwether::core
