// The traced replay: per-layer attribution of a wire run.
//
// After the wire run, the same request stream is replayed in-process
// through the public functions the server calls, in the order the frames
// were sent and at the batch sizes the server reported for the timed
// phase: FrameDecoder, ShardedDirectory::apply_updates and region_of,
// NotificationEngine::drain and to_notify, QueryEngine::run,
// QueryResult::encode and append_frame.  Each call is a span (name, start,
// end, parent, batch id); a module's self time is its spans' time minus
// their children's.  The spans, together with one client-side span per
// wire request, are written to .bench_trace/ when the run ends.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "plan.h"
#include "wire.h"

namespace pb {

/// One request as the client saw it: from release to reply.
struct ClientSpan {
  OpKind kind = OpKind::kUpdate;
  std::uint32_t conn = 0;
  double start = 0.0;
  double end = 0.0;
};

struct ReplayInput {
  const Plan* plan = nullptr;
  const PhaseResult* timed = nullptr;
  double mean_ingest_batch = 1.0;  ///< timed phase, from the server
  double mean_query_batch = 1.0;
  std::string trace_path;          ///< where the spans go
  const std::vector<ClientSpan>* client_spans = nullptr;
};

/// Replays the stream and returns the per-layer metrics it measures:
/// `<module>.self_s` for net, serve, directory, query and pubsub, the
/// per-call costs named in BENCHMARK.json, and `replay_layer_s`, the sum of
/// the self times.
std::map<std::string, double> replay(const ReplayInput& in);

}  // namespace pb
