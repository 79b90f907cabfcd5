// Test writes through the database's one write path, the one every consumer
// takes: intern the identity, stage the points in a WriteBatch, commit.
#ifndef FBDETECT_TESTS_BATCH_WRITES_H_
#define FBDETECT_TESTS_BATCH_WRITES_H_

#include "src/common/sim_time.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/timeseries.h"

namespace fbdetect {

// Commits every point of `series` to `id` in one batch.
inline void CommitSeries(TimeSeriesDatabase& db, const MetricId& id, const TimeSeries& series) {
  const InternedMetricId interned = db.Intern(id);
  WriteBatch batch(&db);
  for (size_t i = 0; i < series.size(); ++i) {
    batch.Add(interned, series.timestamps()[i], series.values()[i]);
  }
  batch.Commit();
}

// Commits one point to `id` in a batch of its own.
inline void CommitPoint(TimeSeriesDatabase& db, const MetricId& id, TimePoint timestamp,
                        double value) {
  WriteBatch batch(&db);
  batch.Add(db.Intern(id), timestamp, value);
  batch.Commit();
}

}  // namespace fbdetect

#endif  // FBDETECT_TESTS_BATCH_WRITES_H_
