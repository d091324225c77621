#include "prefetch/mech_spec.hh"

#include <algorithm>
#include <cctype>
#include <optional>
#include <stdexcept>

#include "mem/page_table.hh"
#include "prefetch/asp.hh"
#include "prefetch/distance.hh"
#include "prefetch/hybrid.hh"
#include "prefetch/markov.hh"
#include "prefetch/recency.hh"
#include "prefetch/sequential.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

[[noreturn]] void
malformed(const std::string &text, const std::string &why)
{
    throw std::invalid_argument("malformed mechanism spec '" + text +
                                "': " + why);
}

std::string
lowered(const std::string &text)
{
    std::string out = text;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

std::string
trimmed(const std::string &text)
{
    std::size_t begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    std::size_t end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
}

/** Split on @p sep at parenthesis depth 0 (tokens trimmed). */
std::vector<std::string>
splitTopLevel(const std::string &text, char sep)
{
    std::vector<std::string> tokens;
    std::string token;
    int depth = 0;
    for (char c : text) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == sep && depth == 0) {
            tokens.push_back(trimmed(token));
            token.clear();
            continue;
        }
        token.push_back(c);
    }
    tokens.push_back(trimmed(token));
    return tokens;
}

std::uint64_t
parseUIntValue(const std::string &value, const std::string &whole,
               const std::string &context)
{
    if (value.empty())
        malformed(whole, context + " needs a number");
    std::uint64_t out = 0;
    for (char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            malformed(whole,
                      context + " '" + value + "' is not a number");
        std::uint64_t next =
            out * 10 + static_cast<std::uint64_t>(c - '0');
        if (next < out)
            malformed(whole, context + " '" + value + "' overflows");
        out = next;
    }
    return out;
}

/** The canonical string form of a parameter's default value. */
std::string
defaultValueString(const MechParam &param)
{
    switch (param.kind) {
      case MechParam::Kind::UInt:
        return std::to_string(param.dflt);
      case MechParam::Kind::Flag:
        return param.dflt ? "1" : "0";
      case MechParam::Kind::Choice:
        return param.choices.front();
    }
    return "";
}

/** Schema-order parameter list for an entry, with @p args applied. */
std::vector<std::pair<std::string, std::string>>
resolveParams(
    const MechanismEntry &entry,
    const std::vector<std::pair<std::string, std::string>> &args,
    const std::string &whole)
{
    auto schemaOf =
        [&entry](const std::string &key) -> const MechParam * {
        for (const MechParam &param : entry.params)
            if (param.key == key)
                return &param;
        return nullptr;
    };

    std::vector<std::pair<std::string, std::string>> resolved;
    for (const auto &[key, raw] : args) {
        const MechParam *schema = schemaOf(key);
        if (!schema) {
            std::string known;
            for (const MechParam &param : entry.params)
                known += (known.empty() ? "" : ", ") + param.key;
            malformed(whole, "unknown parameter '" + key +
                                 "' for mechanism '" + entry.name +
                                 "' (parameters: " +
                                 (known.empty() ? "none" : known) +
                                 ")");
        }
        for (const auto &[seen, value] : resolved) {
            (void)value;
            if (seen == key)
                malformed(whole, "parameter '" + key +
                                     "' given more than once");
        }

        std::string canonical;
        switch (schema->kind) {
          case MechParam::Kind::UInt: {
              std::uint64_t value = parseUIntValue(
                  raw, whole, "parameter '" + key + "'");
              if (value < schema->min || value > schema->max)
                  malformed(whole,
                            "parameter '" + key + "' must be in [" +
                                std::to_string(schema->min) + ", " +
                                std::to_string(schema->max) +
                                "], got " + raw);
              canonical = std::to_string(value);
              break;
          }
          case MechParam::Kind::Flag: {
              std::string v = lowered(raw);
              if (v.empty() || v == "1" || v == "true" || v == "on")
                  canonical = "1";
              else if (v == "0" || v == "false" || v == "off")
                  canonical = "0";
              else
                  malformed(whole, "flag '" + key +
                                       "' takes no value (or "
                                       "true/false), got '" +
                                       raw + "'");
              break;
          }
          case MechParam::Kind::Choice: {
              std::string v = lowered(raw);
              for (const std::string &choice : schema->choices)
                  if (v == choice)
                      canonical = choice;
              if (canonical.empty())
                  for (const auto &[alias, choice] :
                       schema->choiceAliases)
                      if (v == alias)
                          canonical = choice;
              if (canonical.empty()) {
                  std::string options;
                  for (const std::string &choice : schema->choices)
                      options +=
                          (options.empty() ? "" : "/") + choice;
                  malformed(whole, "parameter '" + key + "' must be " +
                                       options + ", got '" + raw +
                                       "'");
              }
              break;
          }
        }
        resolved.emplace_back(key, std::move(canonical));
    }

    // Fill defaults and order by schema.
    std::vector<std::pair<std::string, std::string>> ordered;
    ordered.reserve(entry.params.size());
    for (const MechParam &param : entry.params) {
        std::string value;
        for (const auto &[key, v] : resolved)
            if (key == param.key)
                value = v;
        if (value.empty())
            value = defaultValueString(param);
        ordered.emplace_back(param.key, std::move(value));
    }
    return ordered;
}

MechanismSpec parseSpec(const std::string &text,
                        const std::string &whole);

/** Resolve a head name to an entry, expanding parameterised aliases. */
const MechanismEntry &
resolveEntry(const std::string &name, const std::string &whole,
             bool args_follow, std::optional<MechanismSpec> &alias_spec)
{
    MechanismRegistry &registry = MechanismRegistry::instance();
    std::string head = trimmed(name);
    if (head.empty())
        malformed(whole, "empty mechanism name");
    if (const MechanismEntry *entry = registry.find(head))
        return *entry;
    if (const std::string *expansion =
            registry.aliasExpansion(head)) {
        if (args_follow)
            malformed(whole, "alias '" + head +
                                 "' carries preset parameters and "
                                 "takes no arguments (it expands to '" +
                                 *expansion + "')");
        alias_spec = parseSpec(*expansion, whole);
        return *registry.find(alias_spec->name);
    }
    malformed(whole, "unknown mechanism '" + head + "' (known: " +
                         registry.knownNames() +
                         "; see --list-mechanisms)");
}

MechanismSpec
parseSpec(const std::string &text, const std::string &whole)
{
    std::string body = trimmed(text);
    if (body.empty())
        malformed(whole, "empty mechanism spec");

    std::size_t open = body.find('(');
    if (open != std::string::npos) {
        // Canonical grammar: name(args).
        if (body.back() != ')')
            malformed(whole, "expected ')' to close '" +
                                 body.substr(0, open) + "('");
        std::string name = body.substr(0, open);
        std::string args =
            body.substr(open + 1, body.size() - open - 2);
        int depth = 0;
        for (char c : args) {
            depth += c == '(' ? 1 : c == ')' ? -1 : 0;
            if (depth < 0)
                malformed(whole, "unbalanced parentheses");
        }
        if (depth != 0)
            malformed(whole, "unbalanced parentheses");

        std::optional<MechanismSpec> alias_spec;
        const MechanismEntry &entry =
            resolveEntry(name, whole, true, alias_spec);

        MechanismSpec spec;
        spec.name = entry.name;
        if (entry.composite) {
            if (trimmed(args).empty())
                malformed(whole, "mechanism '" + entry.name +
                                     "' needs a '+'-separated child "
                                     "list, e.g. " +
                                     entry.name + "(dp+sp)");
            for (const std::string &child :
                 splitTopLevel(args, '+')) {
                if (child.empty())
                    malformed(whole, "mechanism '" + entry.name +
                                         "' has an empty child");
                spec.children.push_back(parseSpec(child, whole));
            }
            if (spec.children.size() < entry.minChildren ||
                spec.children.size() > entry.maxChildren)
                malformed(whole,
                          "mechanism '" + entry.name + "' takes " +
                              std::to_string(entry.minChildren) +
                              ".." +
                              std::to_string(entry.maxChildren) +
                              " children, got " +
                              std::to_string(spec.children.size()));
            spec.params = resolveParams(entry, {}, whole);
        } else {
            std::vector<std::pair<std::string, std::string>> kv;
            if (!trimmed(args).empty()) {
                for (const std::string &arg :
                     splitTopLevel(args, ',')) {
                    if (arg.empty())
                        malformed(whole, "empty parameter");
                    std::size_t eq = arg.find('=');
                    if (eq == std::string::npos)
                        kv.emplace_back(arg, ""); // bare flag
                    else
                        kv.emplace_back(trimmed(arg.substr(0, eq)),
                                        trimmed(arg.substr(eq + 1)));
                }
            }
            spec.params = resolveParams(entry, kv, whole);
        }
        if (entry.validate)
            entry.validate(spec);
        return spec;
    }

    if (body.find(',') != std::string::npos) {
        // Figure-legend grammar: NAME,field,field.
        std::vector<std::string> fields = splitTopLevel(body, ',');
        std::string head = fields.front();
        fields.erase(fields.begin());

        // args_follow = true: a parameterised alias ("ASQ") cannot
        // take legend fields on top of its preset.
        std::optional<MechanismSpec> alias_spec;
        const MechanismEntry &entry =
            resolveEntry(head, whole, true, alias_spec);

        if (!entry.parseLegend)
            malformed(whole, "mechanism '" + entry.name +
                                 "' takes no legend fields; use " +
                                 entry.name + "(key=value,...)");
        std::vector<std::pair<std::string, std::string>> kv;
        entry.parseLegend(fields, kv);
        MechanismSpec spec;
        spec.name = entry.name;
        spec.params = resolveParams(entry, kv, whole);
        if (entry.validate)
            entry.validate(spec);
        return spec;
    }

    // Bare name (entry or alias).
    std::optional<MechanismSpec> alias_spec;
    const MechanismEntry &entry =
        resolveEntry(body, whole, false, alias_spec);
    if (alias_spec)
        return *alias_spec;
    if (entry.composite)
        malformed(whole, "mechanism '" + entry.name +
                             "' needs a '+'-separated child list, "
                             "e.g. " +
                             entry.name + "(dp+sp)");
    MechanismSpec spec;
    spec.name = entry.name;
    spec.params = resolveParams(entry, {}, whole);
    if (entry.validate)
        entry.validate(spec);
    return spec;
}

const MechanismEntry &
entryOf(const MechanismSpec &spec)
{
    const MechanismEntry *entry =
        MechanismRegistry::instance().find(spec.name);
    if (!entry)
        throw std::invalid_argument(
            "mechanism spec names unknown mechanism '" + spec.name +
            "' (known: " +
            MechanismRegistry::instance().knownNames() + ")");
    return *entry;
}

} // namespace

MechParam
MechParam::makeUInt(std::string key, std::string help,
                    std::uint64_t dflt, std::uint64_t min,
                    std::uint64_t max)
{
    MechParam param;
    param.key = std::move(key);
    param.kind = Kind::UInt;
    param.help = std::move(help);
    param.dflt = dflt;
    param.min = min;
    param.max = max;
    return param;
}

MechParam
MechParam::makeFlag(std::string key, std::string help)
{
    MechParam param;
    param.key = std::move(key);
    param.kind = Kind::Flag;
    param.help = std::move(help);
    return param;
}

MechParam
MechParam::makeChoice(
    std::string key, std::string help, std::vector<std::string> choices,
    std::vector<std::pair<std::string, std::string>> aliases)
{
    tlbpf_assert(!choices.empty(), "choice parameter needs choices");
    MechParam param;
    param.key = std::move(key);
    param.kind = Kind::Choice;
    param.help = std::move(help);
    param.choices = std::move(choices);
    param.choiceAliases = std::move(aliases);
    return param;
}

MechanismSpec
MechanismSpec::parse(const std::string &text)
{
    return parseSpec(text, text);
}

MechanismSpec
MechanismSpec::none()
{
    MechanismSpec spec;
    spec.name = "none";
    return spec;
}

std::string
MechanismSpec::label() const
{
    const MechanismEntry &entry = entryOf(*this);
    return entry.legend ? entry.legend(*this) : entry.name;
}

std::string
MechanismSpec::canonical() const
{
    const MechanismEntry &entry = entryOf(*this);
    if (entry.composite) {
        std::string out = entry.name + "(";
        for (std::size_t i = 0; i < children.size(); ++i) {
            if (i > 0)
                out += '+';
            out += children[i].canonical();
        }
        return out + ")";
    }
    std::string args;
    for (const MechParam &param : entry.params) {
        std::string value;
        for (const auto &[key, v] : params)
            if (key == param.key)
                value = v;
        if (value == defaultValueString(param) || value.empty())
            continue;
        if (!args.empty())
            args += ',';
        if (param.kind == MechParam::Kind::Flag)
            args += param.key; // bare flag
        else
            args += param.key + "=" + value;
    }
    return args.empty() ? entry.name : entry.name + "(" + args + ")";
}

std::string
MechanismSpec::shortName() const
{
    return entryOf(*this).shortName;
}

std::unique_ptr<Prefetcher>
MechanismSpec::build(PageTable &pt) const
{
    validate();
    return entryOf(*this).build(*this, pt);
}

HardwareProfile
MechanismSpec::hardwareProfile() const
{
    const MechanismEntry &entry = entryOf(*this);
    if (entry.profile)
        return entry.profile(*this);
    PageTable pt;
    std::unique_ptr<Prefetcher> built = build(pt);
    if (!built)
        return HardwareProfile{"-", "-", "-", "-", 0, "0"};
    return built->hardwareProfile();
}

void
MechanismSpec::validate() const
{
    const MechanismEntry &entry = entryOf(*this);
    // Re-resolve so hand-assembled specs get the same checking as
    // parsed ones (fills nothing: params are already canonical).
    std::vector<std::pair<std::string, std::string>> resolved =
        resolveParams(entry, params, name);
    if (resolved != params)
        throw std::invalid_argument(
            "mechanism spec '" + name +
            "' has unresolved parameters; construct specs with "
            "MechanismSpec::parse()");
    if (entry.composite) {
        if (children.size() < entry.minChildren ||
            children.size() > entry.maxChildren)
            throw std::invalid_argument(
                "mechanism '" + name + "' takes " +
                std::to_string(entry.minChildren) + ".." +
                std::to_string(entry.maxChildren) + " children, got " +
                std::to_string(children.size()));
        for (const MechanismSpec &child : children)
            child.validate();
    } else if (!children.empty()) {
        throw std::invalid_argument("mechanism '" + name +
                                    "' takes no children");
    }
    if (entry.validate)
        entry.validate(*this);
}

std::uint64_t
MechanismSpec::uintParam(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return parseUIntValue(v, name, "parameter '" + key + "'");
    throw std::invalid_argument("mechanism '" + name +
                                "' has no parameter '" + key + "'");
}

bool
MechanismSpec::flagParam(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return v == "1";
    throw std::invalid_argument("mechanism '" + name +
                                "' has no parameter '" + key + "'");
}

const std::string &
MechanismSpec::choiceParam(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return v;
    throw std::invalid_argument("mechanism '" + name +
                                "' has no parameter '" + key + "'");
}

TableConfig
MechanismSpec::tableParam() const
{
    const std::string &assoc = choiceParam("assoc");
    TableAssoc ta = TableAssoc::Direct;
    if (assoc == "2w")
        ta = TableAssoc::TwoWay;
    else if (assoc == "4w")
        ta = TableAssoc::FourWay;
    else if (assoc == "fa")
        ta = TableAssoc::Full;
    return TableConfig{
        static_cast<std::uint32_t>(uintParam("rows")), ta};
}

namespace
{

constexpr std::uint64_t kMaxTableRows = 1u << 20;

MechParam
rowsParam()
{
    return MechParam::makeUInt(
        "rows", "prediction-table rows (sets must be a power of two)",
        256, 1, kMaxTableRows);
}

MechParam
assocParam()
{
    return MechParam::makeChoice(
        "assoc", "table indexing: dm/2w/4w/fa",
        {"dm", "2w", "4w", "fa"},
        {{"d", "dm"}, {"direct", "dm"}, {"2", "2w"}, {"4", "4w"},
         {"f", "fa"}, {"full", "fa"}});
}

MechParam
slotsParam()
{
    return MechParam::makeUInt(
        "slots", "prediction slots per row (the paper's s)", 2, 1, 8);
}

/** Rows/assoc cross-checks PredictionTable would otherwise fatal on. */
void
validateTableGeometry(const MechanismSpec &spec)
{
    TableConfig table = spec.tableParam();
    if (table.rows % table.ways() != 0)
        throw std::invalid_argument(
            "mechanism '" + spec.name + "': rows (" +
            std::to_string(table.rows) +
            ") must be a multiple of the associativity ways (" +
            std::to_string(table.ways()) + ")");
    if (!isPowerOfTwo(table.numSets()))
        throw std::invalid_argument(
            "mechanism '" + spec.name + "': rows (" +
            std::to_string(table.rows) + ") at " +
            spec.choiceParam("assoc") +
            " indexing gives a non-power-of-two set count");
}

/** Legend fields [rows [, assoc]] shared by the table mechanisms. */
void
parseTableLegend(
    const std::vector<std::string> &fields,
    std::vector<std::pair<std::string, std::string>> &args)
{
    if (fields.size() > 2)
        throw std::invalid_argument(
            "table-mechanism legend takes NAME,rows,assoc");
    if (!fields.empty())
        args.emplace_back("rows", fields[0]);
    if (fields.size() == 2)
        args.emplace_back("assoc", fields[1]);
}

/**
 * True if every parameter outside @p legend_keys is at its default —
 * the condition for the figure-legend form to round-trip losslessly.
 * Entries whose legend covers only part of the schema fall back to
 * canonical() when it does not, keeping parse(label(s)) == s
 * universally while leaving the paper's default-geometry legends
 * byte-identical.
 */
bool
legendCoversSpec(const MechanismSpec &spec,
                 std::initializer_list<const char *> legend_keys)
{
    const MechanismEntry *entry =
        MechanismRegistry::instance().find(spec.name);
    if (!entry)
        return false;
    for (const MechParam &param : entry->params) {
        bool in_legend = false;
        for (const char *key : legend_keys)
            if (param.key == key)
                in_legend = true;
        if (in_legend)
            continue;
        for (const auto &[key, value] : spec.params)
            if (key == param.key &&
                value != defaultValueString(param))
                return false;
    }
    return true;
}

std::string
tableLegend(const MechanismSpec &spec)
{
    if (!legendCoversSpec(spec, {"rows", "assoc"}))
        return spec.canonical();
    return spec.shortName() + "," +
           std::to_string(spec.uintParam("rows")) + "," +
           assocLabel(spec.tableParam().assoc);
}

void
registerBuiltins(MechanismRegistry &registry)
{
    {
        MechanismEntry none;
        none.name = "none";
        none.shortName = "none";
        none.summary = "no prefetching (baseline)";
        none.build = [](const MechanismSpec &, PageTable &) {
            return std::unique_ptr<Prefetcher>();
        };
        registry.add(std::move(none));
    }
    {
        MechanismEntry sp;
        sp.name = "sp";
        sp.shortName = "SP";
        sp.summary = "tagged sequential prefetching; adaptive engages "
                     "the Dahlgren degree controller";
        sp.aliases = {{"ASQ", "sp(adaptive)"}};
        sp.params = {
            MechParam::makeUInt("degree",
                                "sequential pages prefetched per miss",
                                1, 1, 64),
            MechParam::makeFlag("adaptive",
                                "Dahlgren-style adaptive degree"),
        };
        sp.build = [](const MechanismSpec &spec, PageTable &) {
            if (spec.flagParam("adaptive"))
                return std::unique_ptr<Prefetcher>(
                    std::make_unique<AdaptiveSequentialPrefetcher>());
            return std::unique_ptr<Prefetcher>(
                std::make_unique<SequentialPrefetcher>(
                    static_cast<unsigned>(spec.uintParam("degree"))));
        };
        sp.legend = [](const MechanismSpec &spec) {
            if (spec.flagParam("adaptive")) {
                // "ASQ" only covers the default degree; fall back to
                // the canonical grammar when it would lose a value.
                return legendCoversSpec(spec, {"adaptive"})
                           ? std::string("ASQ")
                           : spec.canonical();
            }
            return "SP," + std::to_string(spec.uintParam("degree"));
        };
        sp.parseLegend =
            [](const std::vector<std::string> &fields,
               std::vector<std::pair<std::string, std::string>>
                   &args) {
                if (fields.size() > 1)
                    throw std::invalid_argument(
                        "SP legend takes SP,degree");
                if (!fields.empty())
                    args.emplace_back("degree", fields[0]);
            };
        registry.add(std::move(sp));
    }
    {
        MechanismEntry asp;
        asp.name = "asp";
        asp.shortName = "ASP";
        asp.summary = "arbitrary stride prefetching (Chen-Baer RPT, "
                      "PC-indexed)";
        asp.aliases = {{"stride", "asp"}};
        asp.params = {rowsParam(), assocParam()};
        asp.build = [](const MechanismSpec &spec, PageTable &) {
            return std::unique_ptr<Prefetcher>(
                std::make_unique<AspPrefetcher>(spec.tableParam()));
        };
        asp.legend = tableLegend;
        asp.parseLegend = parseTableLegend;
        asp.validate = validateTableGeometry;
        registry.add(std::move(asp));
    }
    {
        MechanismEntry mp;
        mp.name = "mp";
        mp.shortName = "MP";
        mp.summary = "Markov prefetching (page-successor table, "
                     "Joseph-Grunwald)";
        mp.aliases = {{"markov", "mp"}};
        mp.params = {rowsParam(), assocParam(), slotsParam()};
        mp.build = [](const MechanismSpec &spec, PageTable &) {
            return std::unique_ptr<Prefetcher>(
                std::make_unique<MarkovPrefetcher>(
                    spec.tableParam(),
                    static_cast<std::uint32_t>(
                        spec.uintParam("slots"))));
        };
        mp.legend = tableLegend;
        mp.parseLegend = parseTableLegend;
        mp.validate = validateTableGeometry;
        registry.add(std::move(mp));
    }
    {
        MechanismEntry rp;
        rp.name = "rp";
        rp.shortName = "RP";
        rp.summary = "recency-based prefetching (LRU stack threaded "
                     "through the page table, Saulsbury et al.)";
        rp.aliases = {{"recency", "rp"}};
        rp.params = {MechParam::makeUInt(
            "reach", "stack neighbours prefetched per side", 1, 1,
            RecencyStack::kMaxNeighbors / 2)};
        rp.build = [](const MechanismSpec &spec, PageTable &pt) {
            return std::unique_ptr<Prefetcher>(
                std::make_unique<RecencyPrefetcher>(
                    pt,
                    static_cast<unsigned>(spec.uintParam("reach"))));
        };
        rp.legend = [](const MechanismSpec &spec) {
            std::uint64_t reach = spec.uintParam("reach");
            return reach == 1 ? std::string("RP")
                              : "RP," + std::to_string(2 * reach);
        };
        rp.parseLegend =
            [](const std::vector<std::string> &fields,
               std::vector<std::pair<std::string, std::string>>
                   &args) {
                if (fields.empty())
                    return;
                if (fields.size() > 1)
                    throw std::invalid_argument(
                        "RP legend takes RP,prefetches-per-miss");
                std::uint64_t n = parseUIntValue(
                    fields[0], fields[0], "RP legend field");
                if (n == 0 || n % 2 != 0)
                    throw std::invalid_argument(
                        "RP legend field is the prefetch count "
                        "(2 per reach), so it must be even");
                args.emplace_back("reach", std::to_string(n / 2));
            };
        registry.add(std::move(rp));
    }
    {
        MechanismEntry dp;
        dp.name = "dp";
        dp.shortName = "DP";
        dp.summary = "distance prefetching (the paper's proposal: "
                     "miss-distance-indexed table)";
        dp.aliases = {{"distance", "dp"}};
        dp.params = {rowsParam(), assocParam(), slotsParam()};
        dp.build = [](const MechanismSpec &spec, PageTable &) {
            return std::unique_ptr<Prefetcher>(
                std::make_unique<DistancePrefetcher>(
                    spec.tableParam(),
                    static_cast<std::uint32_t>(
                        spec.uintParam("slots"))));
        };
        dp.legend = tableLegend;
        dp.parseLegend = parseTableLegend;
        dp.validate = validateTableGeometry;
        registry.add(std::move(dp));
    }
}

} // namespace

MechanismRegistry::MechanismRegistry()
{
    registerBuiltins(*this);
    registerHybridMechanism(*this);
}

MechanismRegistry &
MechanismRegistry::instance()
{
    static MechanismRegistry registry;
    return registry;
}

void
MechanismRegistry::add(MechanismEntry entry)
{
    if (entry.name.empty())
        throw std::invalid_argument("mechanism entry needs a name");
    if (!entry.build)
        throw std::invalid_argument("mechanism entry '" + entry.name +
                                    "' needs a build hook");
    if (entry.composite &&
        (entry.minChildren < 2 ||
         entry.maxChildren < entry.minChildren))
        throw std::invalid_argument(
            "composite mechanism entry '" + entry.name +
            "' needs minChildren >= 2 and maxChildren >= minChildren");
    if (entry.shortName.empty())
        entry.shortName = entry.name;
    std::string key = lowered(entry.name);
    if (_entries.contains(key) || _aliases.contains(key))
        throw std::invalid_argument("mechanism name '" + entry.name +
                                    "' is already registered");
    for (const auto &[alias, target] : entry.aliases) {
        (void)target;
        std::string akey = lowered(alias);
        if (_entries.contains(akey) || _aliases.contains(akey))
            throw std::invalid_argument(
                "mechanism alias '" + alias + "' of '" + entry.name +
                "' is already registered");
    }
    for (const auto &[alias, target] : entry.aliases)
        _aliases.emplace(lowered(alias), target);
    _entries.emplace(std::move(key), std::move(entry));
}

const MechanismEntry *
MechanismRegistry::find(const std::string &name) const
{
    auto it = _entries.find(lowered(name));
    if (it != _entries.end())
        return &it->second;
    // A bare-name alias whose expansion is itself a bare entry name
    // resolves straight to that entry ("markov" -> "mp").
    auto alias = _aliases.find(lowered(name));
    if (alias != _aliases.end()) {
        auto target = _entries.find(lowered(alias->second));
        if (target != _entries.end())
            return &target->second;
    }
    return nullptr;
}

const std::string *
MechanismRegistry::aliasExpansion(const std::string &name) const
{
    auto alias = _aliases.find(lowered(name));
    if (alias == _aliases.end())
        return nullptr;
    // Plain renames are handled by find(); only parameterised
    // expansions need the spec-string path.
    if (_entries.contains(lowered(alias->second)))
        return nullptr;
    return &alias->second;
}

std::vector<const MechanismEntry *>
MechanismRegistry::entries() const
{
    std::vector<const MechanismEntry *> out;
    out.reserve(_entries.size());
    for (const auto &[name, entry] : _entries) {
        (void)name;
        out.push_back(&entry);
    }
    return out;
}

std::string
MechanismRegistry::knownNames() const
{
    std::string out;
    for (const auto &[name, entry] : _entries) {
        (void)entry;
        out += (out.empty() ? "" : ", ") + name;
    }
    return out;
}

std::vector<MechanismSpec>
parseMechanismList(const std::string &text)
{
    std::vector<MechanismSpec> specs;
    std::string body = trimmed(text);
    if (body.empty())
        return specs;

    // Legend forms use commas internally ("DP,256,D"), so a comma is
    // ambiguous between a field and a list separator.  Resolve by
    // greedy longest-match: at each position take the longest run of
    // comma-joined tokens that parses as one spec, so both
    // "DP,256,D" (one spec) and "hybrid(dp+sp),DP,256,D,RP" (three)
    // mean what they look like.
    std::vector<std::string> tokens = splitTopLevel(body, ',');
    std::size_t i = 0;
    while (i < tokens.size()) {
        std::size_t taken = 0;
        MechanismSpec parsed;
        std::string run;
        for (std::size_t j = i; j < tokens.size(); ++j) {
            run += (j > i ? "," : "") + tokens[j];
            try {
                parsed = MechanismSpec::parse(run);
                taken = j - i + 1;
            } catch (const std::invalid_argument &) {
                // Longer runs may still parse while the run is a
                // truncated legend ("DP" < "DP,256"); once a run has
                // parsed, the first failure ends the spec.
                if (taken)
                    break;
            }
        }
        if (!taken)
            MechanismSpec::parse(tokens[i]); // throws with context
        specs.push_back(std::move(parsed));
        i += taken;
    }
    return specs;
}

MechanismSpec
parseMechanismOrDie(const std::string &text)
{
    try {
        return MechanismSpec::parse(text);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }
}

std::vector<MechanismSpec>
parseMechanismListOrDie(const std::string &text)
{
    try {
        return parseMechanismList(text);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }
}

} // namespace tlbpf
