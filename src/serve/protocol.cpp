#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <system_error>

#include "json/flat_json.hpp"

namespace manytiers::serve {

namespace {

constexpr std::string_view kContext = "serve protocol";

}  // namespace

std::string_view to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::Price: return "price";
    case QueryKind::Schedule: return "schedule";
    case QueryKind::Requote: return "requote";
    case QueryKind::Reload: return "reload";
    case QueryKind::Health: return "health";
    case QueryKind::Stats: return "stats";
  }
  throw std::invalid_argument("unknown query kind");
}

QueryKind parse_query_kind(std::string_view name) {
  if (name == "price") return QueryKind::Price;
  if (name == "schedule") return QueryKind::Schedule;
  if (name == "requote") return QueryKind::Requote;
  if (name == "reload") return QueryKind::Reload;
  if (name == "health") return QueryKind::Health;
  if (name == "stats") return QueryKind::Stats;
  throw std::invalid_argument(
      "serve protocol: unknown query kind \"" + std::string(name) +
      "\"; known: price, schedule, requote, reload, health, stats");
}

namespace {

// The kinds answered from one grid cell (market, strategy, bundles).
bool cell_query(QueryKind kind) {
  return kind == QueryKind::Price || kind == QueryKind::Schedule ||
         kind == QueryKind::Requote;
}

}  // namespace

std::string serialize_request(const Request& request) {
  std::string out;
  json::Writer writer(out);
  writer.field("id", request.id).field("kind", to_string(request.kind));
  if (cell_query(request.kind)) {
    writer.field("market", request.market)
        .field("strategy", request.strategy)
        .field("bundles", request.bundles);
  }
  if (request.kind == QueryKind::Price) {
    writer.field("q", request.q)
        .field("d", request.d)
        .field("class", request.cost_class);
  } else if (request.kind == QueryKind::Requote) {
    writer.field("flow", request.flow);
  } else if (request.kind == QueryKind::Reload) {
    if (request.seed) writer.field("seed", *request.seed);
    if (request.n_flows) writer.field("n_flows", *request.n_flows);
    if (!request.updates.empty()) writer.field("updates", request.updates);
  }
  writer.close();
  return out;
}

Request parse_request(std::string_view payload) {
  const json::Object object(payload, kContext);
  Request request;
  request.id = object.get<std::uint64_t>("id");
  request.kind = parse_query_kind(object.get<std::string>("kind"));
  if (cell_query(request.kind)) {
    request.market = object.get<std::string>("market");
    request.strategy = object.get<std::string>("strategy");
    request.bundles = object.get<std::size_t>("bundles");
  }
  if (request.kind == QueryKind::Price) {
    request.q = object.get<double>("q");
    request.d = object.get<double>("d");
    request.cost_class = object.get<std::size_t>("class");
  } else if (request.kind == QueryKind::Requote) {
    request.flow = object.get<std::size_t>("flow");
  } else if (request.kind == QueryKind::Reload) {
    request.seed = object.get_optional<std::uint64_t>("seed");
    request.n_flows = object.get_optional<std::size_t>("n_flows");
    request.updates = object.get_optional<std::string>("updates").value_or("");
  }
  return request;
}

std::string serialize_response(const Response& response) {
  std::string out;
  out.reserve(128 + response.tiers.size() * 128);
  json::Writer writer(out);
  writer.field("id", response.id)
      .field("ok", response.ok)
      .field("epoch", response.epoch);
  if (!response.ok) {
    // The stable code token first (clients branch on it), then the
    // human-readable message. An empty code serializes as bad_request so
    // every error frame carries a token.
    writer
        .field("code", response.code.empty() ? kCodeBadRequest
                                             : std::string_view(response.code))
        .field("error", response.error);
    writer.close();
  return out;
  }
  writer.field("kind", to_string(response.kind));
  switch (response.kind) {
    case QueryKind::Price:
    case QueryKind::Requote:
      writer.field("tier", response.tier)
          .field("price", response.price)
          .field("rel_cost", response.rel_cost);
      if (response.kind == QueryKind::Requote) {
        writer.field("blended_price", response.blended_price);
      }
      break;
    case QueryKind::Schedule:
      if (response.capture_text.empty()) {
        writer.field("capture", response.capture);
      } else {
        writer.key("capture") += response.capture_text;
      }
      writer.key("tiers") += '[';
      for (std::size_t i = 0; i < response.tiers.size(); ++i) {
        const TierInfo& tier = response.tiers[i];
        if (i != 0) out += ',';
        json::Writer(out)
            .field("tier", i)
            .field("price", tier.price)
            .field("f_lo", tier.rel_cost_lo)
            .field("f_hi", tier.rel_cost_hi)
            .field("flows", tier.n_flows)
            .field("demand_mbps", tier.demand_mbps)
            .close();
      }
      out += ']';
      break;
    case QueryKind::Reload:
      writer.field("markets", response.markets)
          .field("recalibrated", response.recalibrated);
      break;
    case QueryKind::Health:
    case QueryKind::Stats:
      if (response.kind == QueryKind::Stats) {
        writer
            .field("version", response.version.empty()
                                  ? kProtocolVersion
                                  : std::string_view(response.version))
            .field("t_us", response.t_us)
            .field("pid", response.stats_pid);
      }
      writer.field("state", response.state)
          .field("active_connections", response.active_connections)
          .field("inflight", response.inflight)
          .field("shed", response.shed)
          .field("markets", response.markets);
      if (response.kind == QueryKind::Health) break;
      writer.field("counters", response.stats_counters)
          .field("gauges", response.stats_gauges);
      writer.key("hists") += '[';
      for (std::size_t i = 0; i < response.stats_hists.size(); ++i) {
        const StatsHist& h = response.stats_hists[i];
        if (i != 0) out += ',';
        json::Writer(out)
            .field("name", h.name)
            .field("count", h.count)
            .field("sum", h.sum)
            .field("p50", h.p50)
            .field("p99", h.p99)
            .field("p999", h.p999)
            .field("buckets", h.buckets)
            .close();
      }
      out += ']';
      break;
  }
  writer.close();
  return out;
}

Response parse_response(std::string_view payload) {
  const json::Object object(payload, kContext);
  Response response;
  response.id = object.get<std::uint64_t>("id");
  response.ok = object.get<bool>("ok");
  response.epoch = object.get<std::uint64_t>("epoch");
  if (!response.ok) {
    response.error = object.get<std::string>("error");
    // Optional for wire-compat with pre-v1.1 error frames.
    response.code = object.get_optional<std::string>("code").value_or("");
    return response;
  }
  response.kind = parse_query_kind(object.get<std::string>("kind"));
  switch (response.kind) {
    case QueryKind::Price:
    case QueryKind::Requote:
      response.tier = object.get<std::size_t>("tier");
      response.price = object.get<double>("price");
      response.rel_cost = object.get<double>("rel_cost");
      if (response.kind == QueryKind::Requote) {
        response.blended_price = object.get<double>("blended_price");
      }
      break;
    case QueryKind::Schedule:
      response.capture = object.get<double>("capture");
      response.capture_text = std::string(object.at("capture").text());
      object.for_each_object("tiers", [&](const json::Object& tier) {
        response.tiers.push_back({tier.get<double>("price"),
                                  tier.get<double>("f_lo"),
                                  tier.get<double>("f_hi"),
                                  tier.get<std::size_t>("flows"),
                                  tier.get<double>("demand_mbps")});
      });
      break;
    case QueryKind::Reload:
      response.markets = object.get<std::size_t>("markets");
      response.recalibrated = object.get<std::size_t>("recalibrated");
      break;
    case QueryKind::Health:
    case QueryKind::Stats:
      if (response.kind == QueryKind::Stats) {
        response.version = object.get<std::string>("version");
        response.t_us = object.get<std::uint64_t>("t_us");
        response.stats_pid = object.get<std::int64_t>("pid");
      }
      response.state = object.get<std::string>("state");
      response.active_connections =
          object.get<std::uint64_t>("active_connections");
      response.inflight = object.get<std::uint64_t>("inflight");
      response.shed = object.get<std::uint64_t>("shed");
      response.markets = object.get<std::size_t>("markets");
      if (response.kind == QueryKind::Health) break;
      response.stats_counters =
          object.get<std::vector<std::pair<std::string, std::uint64_t>>>(
              "counters");
      response.stats_gauges =
          object.get<std::vector<std::pair<std::string, std::int64_t>>>(
              "gauges");
      object.for_each_object("hists", [&](const json::Object& hist) {
        StatsHist& h = response.stats_hists.emplace_back();
        h.name = hist.get<std::string>("name");
        h.count = hist.get<std::uint64_t>("count");
        h.sum = hist.get<double>("sum");
        h.p50 = hist.get<double>("p50");
        h.p99 = hist.get<double>("p99");
        h.p999 = hist.get<double>("p999");
        h.buckets =
            hist.get<std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
                "buckets");
      });
      break;
  }
  return response;
}

std::string error_payload(std::uint64_t id, std::uint64_t epoch,
                          std::string_view message) {
  return error_payload(id, epoch, kCodeBadRequest, message);
}

std::string error_payload(std::uint64_t id, std::uint64_t epoch,
                          std::string_view code, std::string_view message) {
  Response response;
  response.id = id;
  response.ok = false;
  response.epoch = epoch;
  response.code = std::string(code);
  response.error = std::string(message);
  return serialize_response(response);
}

void append_frame(std::string& out, std::string_view payload) {
  if (payload.size() > kMaxFrame) {
    throw std::invalid_argument("serve protocol: payload exceeds kMaxFrame");
  }
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(n & 0xff),
                    static_cast<char>((n >> 8) & 0xff),
                    static_cast<char>((n >> 16) & 0xff),
                    static_cast<char>((n >> 24) & 0xff)};
  out.append(prefix, 4);
  out.append(payload);
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrame) {
    throw std::invalid_argument("serve protocol: payload exceeds kMaxFrame");
  }
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out += static_cast<char>(n & 0xff);
  out += static_cast<char>((n >> 8) & 0xff);
  out += static_cast<char>((n >> 16) & 0xff);
  out += static_cast<char>((n >> 24) & 0xff);
  out += payload;
  return out;
}

void write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up surfaces as EPIPE, never a
    // process-killing SIGPIPE. send() requires a socket fd, which is
    // the only place this protocol runs.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(),
                              "serve protocol: send");
    }
    off += static_cast<std::size_t>(n);
  }
}

FrameReader::Status FrameReader::next(std::string& payload) {
  // The wait clock for the read limits: one call to next() is exactly
  // one wait-for-a-frame episode, so both the idle window and the
  // slow-loris frame window are measured from here. (A frame's first
  // bytes may have landed in an earlier call's burst; that makes the
  // cutoff strictly more lenient, never tighter.)
  const auto wait_start = std::chrono::steady_clock::now();
  for (;;) {
    const std::size_t have = buffer_.size() - pos_;
    if (have >= 4) {
      const unsigned char* p =
          reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8) |
                                (static_cast<std::uint32_t>(p[2]) << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24);
      if (len == 0 || len > kMaxFrame) {
        throw FrameError(FrameError::Kind::BadLength,
                         "serve protocol: frame length " +
                             std::to_string(len) + " outside (0, " +
                             std::to_string(kMaxFrame) + "]");
      }
      if (have >= 4 + static_cast<std::size_t>(len)) {
        payload.assign(buffer_, pos_ + 4, len);
        pos_ += 4 + static_cast<std::size_t>(len);
        if (pos_ == buffer_.size()) {
          buffer_.clear();
          pos_ = 0;
        }
        return Status::Frame;
      }
    }
    // Compact once consumption passes half the buffer, so a pipelined
    // connection never grows the buffer without bound.
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[64 * 1024];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof chunk, 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired. With limits armed this is the polling tick
      // that lets us notice a wedged peer; without them it is the
      // client-side hard receive timeout.
      if (limits_.idle_timeout_ms == 0 && limits_.frame_timeout_ms == 0) {
        throw std::system_error(errno, std::generic_category(),
                                "serve protocol: recv timed out");
      }
      const auto waited_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count();
      const bool mid_frame = buffer_.size() > pos_;
      if (mid_frame && limits_.frame_timeout_ms > 0 &&
          waited_ms >= limits_.frame_timeout_ms) {
        throw FrameError(FrameError::Kind::SlowPeer,
                         "serve protocol: peer did not complete its frame "
                         "within " +
                             std::to_string(limits_.frame_timeout_ms) +
                             " ms (slow-loris cutoff)");
      }
      if (!mid_frame && limits_.idle_timeout_ms > 0 &&
          waited_ms >= limits_.idle_timeout_ms) {
        throw FrameError(FrameError::Kind::Idle,
                         "serve protocol: connection idle past " +
                             std::to_string(limits_.idle_timeout_ms) + " ms");
      }
      continue;  // inside the window: keep waiting
    }
    if (n < 0) {
      throw std::system_error(errno, std::generic_category(),
                              "serve protocol: recv");
    }
    if (n == 0) {
      const std::size_t leftover = buffer_.size() - pos_;
      if (leftover == 0) return Status::Eof;
      throw FrameError(
          leftover < 4 ? FrameError::Kind::TornPrefix
                       : FrameError::Kind::MidFrame,
          "serve protocol: connection closed mid-frame (" +
              std::to_string(leftover) + " trailing bytes)");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    fill_time_ = std::chrono::steady_clock::now();
  }
}

bool FrameReader::buffered_frame() const {
  const std::size_t have = buffer_.size() - pos_;
  if (have < 4) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
  // A bad length is also "ready": next() will turn it into FrameError
  // without blocking.
  if (len == 0 || len > kMaxFrame) return true;
  return have >= 4 + static_cast<std::size_t>(len);
}

std::string roundtrip(int fd, std::string_view payload) {
  write_all(fd, encode_frame(payload));
  FrameReader reader(fd);
  std::string response;
  if (reader.next(response) != FrameReader::Status::Frame) {
    throw FrameError(FrameError::Kind::MidFrame,
                     "serve protocol: connection closed before response");
  }
  return response;
}

}  // namespace manytiers::serve
