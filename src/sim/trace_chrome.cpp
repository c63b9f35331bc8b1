#include "sim/trace_chrome.hpp"

#include <cstdio>
#include <set>
#include <string_view>

namespace gbc::sim {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_ts(std::string& out, Time t) {
  char buf[32];
  // ns -> us; three decimals keep full nanosecond precision.
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  out += buf;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Row layout: -1 -> 0 ("global"), rank r -> r + 1.
int chrome_tid(int actor) { return actor + 1; }

void append_event(std::string& out, bool& first, const Trace::Event& ev,
                  char ph, std::string_view name) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":")";
  append_escaped(out, name);
  out += R"(","cat":")";
  append_escaped(out, ev.category);
  out += R"(","ph":")";
  out += ph;
  out += R"(","ts":)";
  append_ts(out, ev.t);
  out += R"(,"pid":0,"tid":)";
  out += std::to_string(chrome_tid(ev.actor));
  if (ph == 'i') out += R"(,"s":"t")";
  if (!ev.detail.empty()) {
    out += R"(,"args":{"detail":")";
    append_escaped(out, ev.detail);
    out += R"("})";
  }
  out += '}';
}

}  // namespace

std::string trace_to_chrome_json(const Trace& trace) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  std::set<int> actors;
  for (const auto& ev : trace.events()) {
    actors.insert(ev.actor);
    if (ev.category == "freeze") {
      append_event(out, first, ev, 'B', "frozen");
    } else if (ev.category == "resume") {
      append_event(out, first, ev, 'E', "frozen");
    } else if (starts_with(ev.detail, "begin")) {
      append_event(out, first, ev, 'B', ev.category);
    } else if (starts_with(ev.detail, "end") || ev.detail == "complete") {
      append_event(out, first, ev, 'E', ev.category);
    } else {
      append_event(out, first, ev, 'i', ev.category);
    }
  }
  // Name the thread rows so the viewer shows ranks, not bare tids.
  for (int actor : actors) {
    if (!first) out += ",\n";
    first = false;
    out += R"({"name":"thread_name","ph":"M","pid":0,"tid":)";
    out += std::to_string(chrome_tid(actor));
    out += R"(,"args":{"name":")";
    out += actor >= 0 ? "rank " + std::to_string(actor) : "global";
    out += R"("}})";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace gbc::sim
