#include "cluster/dbscan.h"

#include <deque>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace tabsketch::cluster {
namespace {

/// Indices of all objects within epsilon of `center` (including itself).
std::vector<size_t> RangeQuery(ClusteringBackend* backend, size_t center,
                               double epsilon) {
  TABSKETCH_TRACE_SPAN("cluster.assign");
  std::vector<size_t> neighbors;
  const size_t n = backend->num_objects();
  for (size_t other = 0; other < n; ++other) {
    if (other == center) {
      neighbors.push_back(other);
      continue;
    }
    if (backend->ObjectDistance(center, other) <= epsilon) {
      neighbors.push_back(other);
    }
  }
  return neighbors;
}

}  // namespace

util::Result<DbscanResult> RunDbscan(ClusteringBackend* backend,
                                     const DbscanOptions& options) {
  TABSKETCH_CHECK(backend != nullptr);
  if (!(options.epsilon > 0.0)) {  // also rejects NaN
    return util::Status::InvalidArgument("epsilon must be positive");
  }
  if (options.min_points == 0) {
    return util::Status::InvalidArgument("min_points must be positive");
  }

  util::WallTimer timer;
  const size_t evals_before = backend->distance_evaluations();
  const size_t n = backend->num_objects();

  constexpr int kUnvisited = -2;
  DbscanResult result;
  result.assignment.assign(n, kUnvisited);

  for (size_t seed = 0; seed < n; ++seed) {
    if (result.assignment[seed] != kUnvisited) continue;
    std::vector<size_t> neighbors =
        RangeQuery(backend, seed, options.epsilon);
    if (neighbors.size() < options.min_points) {
      result.assignment[seed] = kNoiseLabel;
      continue;
    }
    // New cluster: expand from the seed's neighborhood.
    const int cluster = static_cast<int>(result.num_clusters++);
    TABSKETCH_TRACE_INSTANT("cluster.dbscan.new_cluster", cluster);
    result.assignment[seed] = cluster;
    std::deque<size_t> frontier(neighbors.begin(), neighbors.end());
    while (!frontier.empty()) {
      const size_t object = frontier.front();
      frontier.pop_front();
      if (result.assignment[object] == kNoiseLabel) {
        result.assignment[object] = cluster;  // border point
      }
      if (result.assignment[object] != kUnvisited) continue;
      result.assignment[object] = cluster;
      std::vector<size_t> expansion =
          RangeQuery(backend, object, options.epsilon);
      if (expansion.size() >= options.min_points) {
        frontier.insert(frontier.end(), expansion.begin(), expansion.end());
      }
    }
  }

  for (int label : result.assignment) {
    if (label == kNoiseLabel) ++result.num_noise;
  }
  result.seconds = timer.ElapsedSeconds();
  result.distance_evaluations =
      backend->distance_evaluations() - evals_before;
  TABSKETCH_METRIC_GAUGE_SET("cluster.dbscan.clusters", result.num_clusters);
  RecordDistanceEvaluations(*backend, result.distance_evaluations);
  return result;
}

}  // namespace tabsketch::cluster
