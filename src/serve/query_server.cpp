#include "serve/query_server.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <utility>

#include "io/json.hpp"
#include "io/report_json.hpp"
#include "io/snapshot.hpp"

namespace mns::serve {

std::string response_to_json(const Response& response) {
  if (!response.ok())
    return "{\"ok\":false,\"error\":" + io::json_quote(response.error) + "}";
  return "{\"ok\":true,\"report\":" +
         io::run_report_to_json(response.report) + "}";
}

QueryServer::QueryServer(std::shared_ptr<const congest::SolverCore> core,
                         ServerConfig config)
    : core_((require(core != nullptr, "QueryServer: null core"),
             std::move(core))),
      config_((config.workers = std::max(1, config.workers), config)),
      pool_(config_.workers) {
  require(config_.transport == nullptr || config_.workers == 1,
          "QueryServer: a transport is one lock-step endpoint and requires "
          "workers == 1");
  handles_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w)
    handles_.push_back(std::make_unique<congest::SolveHandle>(
        core_, congest::ExecutionPolicy{1}));
  if (config_.transport != nullptr)
    handles_[0]->set_transport(config_.transport);
}

QueryServer QueryServer::from_snapshot(const std::string& path,
                                       ServerConfig config) {
  auto core =
      congest::SolverCore::restore(io::read_snapshot(path), config.core);
  return QueryServer(std::move(core), std::move(config));
}

Request QueryServer::normalize(const Request& request) const {
  Request r = request;
  // The batching rule (DESIGN.md §10): source-independent Voronoi cells give
  // every source of a k-source batch the SAME partition, so the shared
  // cache pays one construction for the whole batch.
  if (r.workload == "sssp.approx") r.params.wavefront_seeds = false;
  return r;
}

Response QueryServer::answer(congest::SolveHandle& handle,
                             const Request& request) {
  Response out;
  try {
    const Request r = normalize(request);
    out.report = handle.solve(r.workload, r.params, r.options);
  } catch (const std::exception& e) {
    out.report = congest::RunReport{};
    out.error = e.what();
    if (out.error.empty()) out.error = "unknown error";
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<Response> QueryServer::warm(const std::vector<Request>& batch) {
  std::vector<Response> out;
  out.reserve(batch.size());
  for (const Request& r : batch) out.push_back(answer(*handles_[0], r));
  return out;
}

std::vector<Response> QueryServer::serve(const std::vector<Request>& batch) {
  return serve(batch, ResponseSink{});
}

std::vector<Response> QueryServer::serve(const std::vector<Request>& batch,
                                         const ResponseSink& sink) {
  std::vector<Response> out(batch.size());
  std::atomic<std::size_t> next{0};
  std::mutex sink_mutex;
  pool_.run(config_.workers, [&](int w) {
    congest::SolveHandle& handle = *handles_[static_cast<std::size_t>(w)];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.size()) break;
      out[i] = answer(handle, batch[i]);
      if (sink) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        sink(i, out[i]);
      }
    }
  });
  return out;
}

}  // namespace mns::serve
