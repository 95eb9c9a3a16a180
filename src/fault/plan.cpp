#include "fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "io/bytes.hpp"
#include "io/json.hpp"

namespace mobsrv::fault {

namespace {

using io::Json;
using io::quoted;

[[noreturn]] void fail(const std::string& ctx, const std::string& message) {
  throw PlanError(ctx + ": " + message);
}

/// The scenario-validator allowlist discipline: every member must be named,
/// and the error enumerates what IS allowed — the plan author's only
/// feedback channel is this message.
void reject_unknown_members(const Json& obj, std::initializer_list<std::string_view> allowed,
                            const std::string& what, const std::string& ctx) {
  if (const Json::Member* member = io::find_unknown_member(obj, allowed))
    fail(ctx, "unknown member \"" + member->first + "\" in " + what +
                  " (allowed: " + io::join_names(allowed) + ")");
}

std::uint64_t uint_field(const Json& obj, const char* key, std::uint64_t fallback,
                         const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(ctx, quoted(key) + " must be a number");
  try {
    return value->as_uint64();
  } catch (const io::JsonError&) {
    fail(ctx, quoted(key) + " must be a non-negative integer");
  }
}

double probability_field(const Json& obj, const char* key, const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) return 0.0;
  if (!value->is_number()) fail(ctx, quoted(key) + " must be a number");
  const double v = value->as_double();
  if (!std::isfinite(v) || v < 0.0 || v > 1.0) fail(ctx, quoted(key) + " must be in [0, 1]");
  return v;
}

Outcome outcome_field(const Json& obj, const char* key, const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) return Outcome::kFail;
  if (!value->is_string()) fail(ctx, quoted(key) + " must be a string");
  const std::string& s = value->as_string();
  if (s == "fail") return Outcome::kFail;
  if (s == "crash") return Outcome::kCrash;
  if (s == "delay") return Outcome::kDelay;
  fail(ctx, quoted(key) + " must be \"fail\", \"crash\" or \"delay\", got \"" + s + "\"");
}

SiteRule parse_rule(const Json& obj, const std::string& ctx) {
  if (!obj.is_object()) fail(ctx, "each fault must be an object");
  reject_unknown_members(
      obj, {"site", "nth", "every", "probability", "count", "delay_us", "outcome"}, "fault", ctx);
  SiteRule rule;
  const Json* site = obj.find("site");
  if (site == nullptr) fail(ctx, "missing required member \"site\"");
  if (!site->is_string()) fail(ctx, "\"site\" must be a string");
  rule.site = site->as_string();
  const std::vector<std::string>& sites = known_sites();
  if (std::find(sites.begin(), sites.end(), rule.site) == sites.end())
    fail(ctx, "unknown fault site \"" + rule.site + "\" (known sites: " + io::join_names(sites) +
                  ")");
  rule.nth = uint_field(obj, "nth", 0, ctx);
  rule.every = uint_field(obj, "every", 0, ctx);
  rule.probability = probability_field(obj, "probability", ctx);
  rule.count = uint_field(obj, "count", 0, ctx);
  rule.delay_us = uint_field(obj, "delay_us", 0, ctx);
  rule.outcome = outcome_field(obj, "outcome", ctx);
  // A rule that can never fire is a plan bug, not a no-op: the torture run
  // it was written for would silently test nothing.
  if (rule.nth == 0 && rule.every == 0 && rule.probability == 0.0)
    fail(ctx, "rule for site \"" + rule.site +
                  "\" has no trigger (set \"nth\", \"every\" or \"probability\")");
  if (rule.outcome == Outcome::kDelay && rule.delay_us == 0)
    fail(ctx, "rule for site \"" + rule.site + "\" has outcome \"delay\" but no \"delay_us\"");
  return rule;
}

}  // namespace

FaultPlan parse_plan(const std::string& text, const std::string& origin) {
  Json doc = Json::object();
  try {
    doc = Json::parse(text);
  } catch (const std::exception& error) {
    fail(origin, std::string("malformed JSON: ") + error.what());
  }
  if (!doc.is_object()) fail(origin, "plan must be a JSON object");
  reject_unknown_members(doc, {"v", "seed", "faults"}, "fault plan", origin);
  const std::uint64_t version = uint_field(doc, "v", 0, origin);
  if (version != kPlanVersion)
    fail(origin, "unsupported plan version " + std::to_string(version) +
                     " (this build reads version " + std::to_string(kPlanVersion) + ")");

  FaultPlan plan;
  plan.seed = uint_field(doc, "seed", 0, origin);
  const Json* faults = doc.find("faults");
  if (faults == nullptr) fail(origin, "missing required member \"faults\"");
  if (!faults->is_array()) fail(origin, "\"faults\" must be an array");
  std::size_t index = 0;
  for (const Json& entry : faults->as_array())
    plan.rules.push_back(parse_rule(entry, origin + ": fault " + std::to_string(index++)));
  if (plan.rules.empty()) fail(origin, "\"faults\" must name at least one rule");
  return plan;
}

FaultPlan load_plan(const std::filesystem::path& path) {
  std::string text;
  if (const io::ReadStatus status = io::read_file(path, text); status != io::ReadStatus::kOk)
    throw PlanError(path.string() + (status == io::ReadStatus::kCannotOpen
                                         ? ": cannot open fault plan (missing file?)"
                                         : ": read failed"));
  return parse_plan(text, path.string());
}

Injector make_injector(const FaultPlan& plan) {
  Injector injector(plan.seed);
  for (const SiteRule& rule : plan.rules) injector.add_rule(rule);
  return injector;
}

}  // namespace mobsrv::fault
