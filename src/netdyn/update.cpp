#include "netdyn/update.hpp"

#include <cctype>
#include <stdexcept>

#include "json/flat_json.hpp"

namespace manytiers::netdyn {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(sep);
    out.push_back(trim(s.substr(0, pos)));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

double parse_double(std::string_view field, std::string_view op) {
  return json::parse_number<double>(
      field, "parse_updates: op '" + std::string(op) + "'");
}

[[noreturn]] void bad_op(std::string_view op, const char* why) {
  throw std::invalid_argument("parse_updates: " + std::string(why) +
                              " in op '" + std::string(op) + "'");
}

}  // namespace

std::string_view to_string(NetworkUpdate::Kind kind) {
  switch (kind) {
    case NetworkUpdate::Kind::LinkWeight: return "w";
    case NetworkUpdate::Kind::LinkDown: return "down";
    case NetworkUpdate::Kind::LinkUp: return "up";
    case NetworkUpdate::Kind::PopAdd: return "add";
    case NetworkUpdate::Kind::PopRemove: return "rm";
  }
  throw std::invalid_argument("unknown update kind");
}

std::string serialize(const NetworkUpdate& u) {
  std::string out(to_string(u.kind));
  switch (u.kind) {
    case NetworkUpdate::Kind::LinkWeight:
      out += "," + u.a + "," + u.b + "," + json::number_text(u.length_miles);
      break;
    case NetworkUpdate::Kind::LinkDown:
      out += "," + u.a + "," + u.b;
      break;
    case NetworkUpdate::Kind::LinkUp:
      out += "," + u.a + "," + u.b;
      if (u.length_miles >= 0.0) {
        out += "," + json::number_text(u.length_miles) + "," +
               json::number_text(u.capacity_gbps);
      }
      break;
    case NetworkUpdate::Kind::PopAdd:
      out += "," + u.name + "," + json::number_text(u.location.lat_deg) + "," +
             json::number_text(u.location.lon_deg);
      break;
    case NetworkUpdate::Kind::PopRemove:
      out += "," + u.name;
      break;
  }
  return out;
}

std::string serialize(std::span<const NetworkUpdate> updates) {
  std::string out;
  for (const auto& u : updates) {
    if (!out.empty()) out += ";";
    out += serialize(u);
  }
  return out;
}

std::vector<NetworkUpdate> parse_updates(std::string_view text) {
  std::vector<NetworkUpdate> out;
  for (const auto op : split(text, ';')) {
    if (op.empty()) continue;
    const auto fields = split(op, ',');
    const auto verb = fields[0];
    NetworkUpdate u;
    if (verb == "w") {
      if (fields.size() != 4) bad_op(op, "'w' needs 3 fields (A,B,LEN)");
      u.kind = NetworkUpdate::Kind::LinkWeight;
      u.a = fields[1];
      u.b = fields[2];
      u.length_miles = parse_double(fields[3], op);
    } else if (verb == "down") {
      if (fields.size() != 3) bad_op(op, "'down' needs 2 fields (A,B)");
      u.kind = NetworkUpdate::Kind::LinkDown;
      u.a = fields[1];
      u.b = fields[2];
    } else if (verb == "up") {
      if (fields.size() < 3 || fields.size() > 5) {
        bad_op(op, "'up' needs 2-4 fields (A,B[,LEN[,CAP]])");
      }
      u.kind = NetworkUpdate::Kind::LinkUp;
      u.a = fields[1];
      u.b = fields[2];
      if (fields.size() >= 4) u.length_miles = parse_double(fields[3], op);
      if (fields.size() == 5) u.capacity_gbps = parse_double(fields[4], op);
    } else if (verb == "add") {
      if (fields.size() != 4) bad_op(op, "'add' needs 3 fields (NAME,LAT,LON)");
      u.kind = NetworkUpdate::Kind::PopAdd;
      u.name = fields[1];
      u.location.lat_deg = parse_double(fields[2], op);
      u.location.lon_deg = parse_double(fields[3], op);
    } else if (verb == "rm") {
      if (fields.size() != 2) bad_op(op, "'rm' needs 1 field (NAME)");
      u.kind = NetworkUpdate::Kind::PopRemove;
      u.name = fields[1];
    } else {
      bad_op(op, "unknown verb");
    }
    if ((u.kind == NetworkUpdate::Kind::LinkWeight ||
         u.kind == NetworkUpdate::Kind::LinkUp ||
         u.kind == NetworkUpdate::Kind::LinkDown) &&
        (u.a.empty() || u.b.empty())) {
      bad_op(op, "empty endpoint name");
    }
    if ((u.kind == NetworkUpdate::Kind::PopAdd ||
         u.kind == NetworkUpdate::Kind::PopRemove) &&
        u.name.empty()) {
      bad_op(op, "empty PoP name");
    }
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace manytiers::netdyn
