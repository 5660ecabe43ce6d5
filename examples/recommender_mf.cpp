// Recommender-system example: train matrix factorization on a synthetic
// power-law ratings dataset (the paper's Netflix workload stand-in), with
// adaptive revision, delta-log checkpoints with point-in-time restore, and a
// few sample predictions.
//
// Run: ./recommender_mf
#include <cstdio>
#include <filesystem>

#include "src/apps/sgd_mf.h"

using namespace orion;

int main() {
  RatingsConfig data_cfg;
  data_cfg.rows = 1500;
  data_cfg.cols = 1200;
  data_cfg.nnz = 80000;
  data_cfg.true_rank = 8;
  const auto data = GenerateRatings(data_cfg);
  std::printf("dataset: %lld x %lld, %zu ratings\n",
              static_cast<long long>(data_cfg.rows), static_cast<long long>(data_cfg.cols),
              data.size());

  Driver driver({.num_workers = 4});
  SgdMfConfig mf;
  mf.rank = 16;
  mf.adarev = true;  // adaptive revision via DistArray Buffer apply UDFs
  mf.adarev_alpha = 0.5f;
  SgdMfApp app(&driver, mf);
  ORION_CHECK_OK(app.Init(data, data_cfg.rows, data_cfg.cols));
  std::printf("plan: %s\n\n", app.train_plan().ToString().c_str());

  // Checkpoint the factors after every pass (paper Sec. 4.3 fault
  // tolerance) to an append-only delta log.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "orion_mf_log").string();
  std::filesystem::remove_all(ckpt_dir);
  ORION_CHECK_OK(driver.EnableDurability({app.w(), app.h()}, ckpt_dir));

  for (int pass = 1; pass <= 12; ++pass) {
    ORION_CHECK_OK(app.RunPass());
    if (pass % 3 == 0) {
      std::printf("pass %2d  NZSL = %.1f\n", pass, *app.EvalLoss());
    }
  }

  // Every pass, the loss passes included, is a restore point. Rewind the
  // cluster to the latest one: the factors come back bit-for-bit.
  const auto points = driver.DurabilityPoints();
  ORION_CHECK_OK(points.status());
  const i64 latest = points->back().pass;
  ORION_CHECK_OK(driver.RestoreToPass(latest));
  std::printf("\nrestored the checkpoint after pass %lld from %s: NZSL = %.1f\n",
              static_cast<long long>(latest), ckpt_dir.c_str(), *app.EvalLoss());

  // A few predictions from the learned factors.
  const CellStore& w = driver.Cells(app.w());
  const CellStore& h = driver.Cells(app.h());
  std::printf("\nsample predictions (user, item) -> predicted vs actual:\n");
  for (size_t s = 0; s < 5 && s < data.size(); ++s) {
    const auto& e = data[s * (data.size() / 5)];
    const f32* wr = w.Get(e.row);
    const f32* hr = h.Get(e.col);
    f32 pred = 0.0f;
    for (int k = 0; k < mf.rank; ++k) {
      pred += wr[k] * hr[k];
    }
    std::printf("  (%4lld, %4lld) -> %5.2f vs %5.2f\n", static_cast<long long>(e.row),
                static_cast<long long>(e.col), pred, e.value);
  }
  std::filesystem::remove_all(ckpt_dir);
  return 0;
}
