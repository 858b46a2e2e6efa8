#include "check/action.h"

#include <sstream>
#include <string>
#include <vector>

namespace epidemic::check {
namespace {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream in{std::string(line)};
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

Result<uint32_t> ParseIndex(const std::string& tok) {
  uint32_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("expected a number, got '" + tok + "'");
    }
    v = v * 10 + static_cast<uint32_t>(c - '0');
    if (v > 1'000'000) return Status::InvalidArgument("index out of range");
  }
  if (tok.empty()) return Status::InvalidArgument("empty index");
  return v;
}

}  // namespace

std::string ItemName(uint32_t item) {
  std::string name = "k";
  name += std::to_string(item);
  return name;
}

std::string FormatAction(const Action& action) {
  switch (action.kind) {
    case ActionKind::kUpdate:
      return "update " + std::to_string(action.a) + " " +
             std::to_string(action.item);
    case ActionKind::kDelete:
      return "delete " + std::to_string(action.a) + " " +
             std::to_string(action.item);
    case ActionKind::kSync:
      return "sync " + std::to_string(action.a) + " " +
             std::to_string(action.b);
    case ActionKind::kOob:
      return "oob " + std::to_string(action.a) + " " +
             std::to_string(action.b) + " " + std::to_string(action.item);
    case ActionKind::kPump:
      return "pump " + std::to_string(action.a);
    case ActionKind::kCrash:
      return "crash " + std::to_string(action.a);
  }
  return "?";
}

Result<Action> ParseAction(std::string_view line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty action line");
  const std::string& verb = tokens[0];

  auto arity = [&](size_t want) -> Status {
    if (tokens.size() != want + 1) {
      return Status::InvalidArgument("'" + verb + "' takes " +
                                     std::to_string(want) + " arguments: '" +
                                     std::string(line) + "'");
    }
    return Status::OK();
  };

  Action action;
  if (verb == "update" || verb == "delete") {
    action.kind =
        verb == "update" ? ActionKind::kUpdate : ActionKind::kDelete;
    EPI_RETURN_NOT_OK(arity(2));
    auto a = ParseIndex(tokens[1]);
    auto item = ParseIndex(tokens[2]);
    if (!a.ok()) return a.status();
    if (!item.ok()) return item.status();
    action.a = *a;
    action.item = *item;
    return action;
  }
  if (verb == "sync") {
    action.kind = ActionKind::kSync;
    EPI_RETURN_NOT_OK(arity(2));
    auto a = ParseIndex(tokens[1]);
    auto b = ParseIndex(tokens[2]);
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    action.a = *a;
    action.b = *b;
    return action;
  }
  if (verb == "oob") {
    action.kind = ActionKind::kOob;
    EPI_RETURN_NOT_OK(arity(3));
    auto a = ParseIndex(tokens[1]);
    auto b = ParseIndex(tokens[2]);
    auto item = ParseIndex(tokens[3]);
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    if (!item.ok()) return item.status();
    action.a = *a;
    action.b = *b;
    action.item = *item;
    return action;
  }
  if (verb == "pump" || verb == "crash") {
    action.kind = verb == "pump" ? ActionKind::kPump : ActionKind::kCrash;
    EPI_RETURN_NOT_OK(arity(1));
    auto a = ParseIndex(tokens[1]);
    if (!a.ok()) return a.status();
    action.a = *a;
    return action;
  }
  return Status::InvalidArgument("unknown action verb '" + verb + "'");
}

std::string EncodeTrace(const TraceFile& trace) {
  std::string out;
  out += "# epicheck trace — replay with: epicheck --replay <file>\n";
  out += "nodes " + std::to_string(trace.nodes) + "\n";
  out += "items " + std::to_string(trace.items) + "\n";
  out += "shards " + std::to_string(trace.shards) + "\n";
  out += "mutate " + trace.mutation + "\n";
  for (const Action& action : trace.actions) {
    out += FormatAction(action) + "\n";
  }
  return out;
}

Result<TraceFile> DecodeTrace(std::string_view text) {
  TraceFile trace;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? text.size() - start
                                             : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;

    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& verb = tokens[0];
    if (verb == "nodes" || verb == "items" || verb == "shards") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("'" + verb + "' takes one argument");
      }
      auto v = ParseIndex(tokens[1]);
      if (!v.ok()) return v.status();
      if (verb == "shards" && *v == 0) {
        return Status::InvalidArgument("'shards' must be at least 1");
      }
      if (verb == "nodes") trace.nodes = *v;
      if (verb == "items") trace.items = *v;
      if (verb == "shards") trace.shards = *v;
      continue;
    }
    if (verb == "mutate") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("'mutate' takes one argument");
      }
      trace.mutation = tokens[1];
      continue;
    }
    auto action = ParseAction(line);
    if (!action.ok()) return action.status();
    trace.actions.push_back(*action);
  }
  return trace;
}

}  // namespace epidemic::check
