#include "core/cli.hh"

#include "core/fault_plan.hh"

namespace cdna::core {

namespace {

/** Everything the option handlers accumulate before the config exists. */
struct ParseState
{
    CliOptions opt;
    std::string mode = "cdna";
    std::optional<std::string> nic; // --nic, xen only (default intel)
    std::string iommu = "none";
    std::string direction = "tx";
    bool protection = true;
    std::uint32_t guests = 1;
    std::uint32_t nics = 2;
    std::string transport = "open";
    std::uint32_t warmupMs = 100;
    double seconds = 0.5;
    std::uint32_t seed = 1;
    double sampleUs = 0.0;
    FaultPlan faults;
};

using Handler = bool (*)(ParseState &, const std::string &, std::string *);

/** One table row: the public spec plus its parse action. */
struct Spec
{
    const char *name;    // "--mode"
    const char *argName; // metavariable, nullptr for flags
    const char *help;    // '\n' continues on an indented line
    const char *group;   // usage section
    Handler handle;      // value is empty for flags
};

bool
failWith(std::string *error, std::string msg)
{
    if (error)
        *error = std::move(msg);
    return false;
}

// The single source of truth for the CLI surface, together with the
// fault directives (core/fault_plan.hh), which follow these rows as
// "--NAME" flags.  cliUsage(), the parser, and cliOptionTable() all
// derive from the two tables, so adding a row is the whole job.
const Spec kSpecs[] = {
    // --- I/O architecture ------------------------------------------------
    {"--mode", "MODE", "native | xen | cdna | swpt (default cdna)",
     "I/O architecture",
     [](ParseState &st, const std::string &v, std::string *) {
         st.mode = v;
         return true;
     }},
    {"--nic", "KIND", "intel | rice (xen mode only; default intel)",
     "I/O architecture",
     [](ParseState &st, const std::string &v, std::string *) {
         st.nic = v;
         return true;
     }},
    {"--no-protection", nullptr,
     "disable CDNA DMA memory protection (cdna mode only)",
     "I/O architecture",
     [](ParseState &st, const std::string &, std::string *) {
         st.protection = false;
         return true;
     }},
    {"--iommu", "MODE", "none | device | context (default none)",
     "I/O architecture",
     [](ParseState &st, const std::string &v, std::string *) {
         st.iommu = v;
         return true;
     }},

    // --- topology & workload ---------------------------------------------
    {"--guests", "N", "number of guest VMs (default 1)",
     "topology & workload",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (!parseCount(v, &st.guests) || st.guests == 0)
             return failWith(error, "--guests needs a positive integer");
         return true;
     }},
    {"--nics", "N", "number of physical NICs (default 2)",
     "topology & workload",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (!parseCount(v, &st.nics) || st.nics == 0)
             return failWith(error, "--nics needs a positive integer");
         return true;
     }},
    {"--direction", "DIR", "tx | rx (default tx)", "topology & workload",
     [](ParseState &st, const std::string &v, std::string *) {
         st.direction = v;
         return true;
     }},
    {"--transport", "MODE",
     "open | tcp: open-loop traffic (default) or\n"
     "closed-loop Reno endpoints with a real ACK path",
     "topology & workload",
     [](ParseState &st, const std::string &v, std::string *) {
         st.transport = v;
         return true;
     }},

    // --- run control -----------------------------------------------------
    {"--warmup", "MS", "warmup before measuring (default 100)",
     "run control",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (!parseCount(v, &st.warmupMs))
             return failWith(error, "--warmup needs milliseconds");
         return true;
     }},
    {"--seconds", "S", "measurement window (default 0.5)", "run control",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (!parseFinite(v, &st.seconds) || st.seconds <= 0)
             return failWith(error, "--seconds needs a positive number");
         return true;
     }},
    {"--seed", "N", "simulation seed (default 1)", "run control",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (!parseCount(v, &st.seed))
             return failWith(error, "--seed needs an integer");
         return true;
     }},
    {"--json", nullptr, "emit the report as JSON", "run control",
     [](ParseState &st, const std::string &, std::string *) {
         st.opt.json = true;
         return true;
     }},
    {"--help", nullptr, "this text", "run control",
     [](ParseState &st, const std::string &, std::string *) {
         st.opt.help = true;
         return true;
     }},

    // --- observability ---------------------------------------------------
    {"--trace", "FILE", "write a Chrome trace-event JSON file",
     "observability",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (v.empty())
             return failWith(error, "--trace needs a file name");
         st.opt.traceFile = v;
         return true;
     }},
    {"--trace-filter", "S",
     "only trace lanes whose name contains one\n"
     "of the comma-separated substrings",
     "observability",
     [](ParseState &st, const std::string &v, std::string *) {
         st.opt.traceFilter = v;
         return true;
     }},
    {"--stats-json", "FILE", "dump every component's stats as JSON",
     "observability",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (v.empty())
             return failWith(error, "--stats-json needs a file name");
         st.opt.statsJsonFile = v;
         return true;
     }},
    {"--sample-period", "US",
     "sample gauges every US microseconds of\n"
     "simulated time (0 = off; default 0)",
     "observability",
     [](ParseState &st, const std::string &v, std::string *error) {
         if (!parseFinite(v, &st.sampleUs) || st.sampleUs < 0)
             return failWith(error,
                             "--sample-period needs microseconds >= 0");
         return true;
     }},

    // --- fault injection -------------------------------------------------
    {"--fault-plan", "FILE",
     "apply a fault plan file (see core/fault_plan.hh);\n"
     "fault flags and files apply in command-line order:\n"
     "a later rate replaces an earlier one, and\n"
     "scheduled faults accumulate",
     "fault injection",
     [](ParseState &st, const std::string &v, std::string *error) {
         auto plan = FaultPlan::fromFile(v, error, &st.faults);
         if (!plan)
             return false;
         st.faults = std::move(*plan);
         return true;
     }},
};

const Spec *
findSpec(const std::string &name)
{
    std::string key = name == "-h" ? "--help" : name;
    for (const Spec &s : kSpecs)
        if (key == s.name)
            return &s;
    return nullptr;
}

/** The fault directive a "--NAME" flag names, or nullptr. */
const FaultDirective *
findDirective(const std::string &flag)
{
    if (!flag.starts_with("--"))
        return nullptr;
    std::string name = flag.substr(2);
    for (const FaultDirective &d : faultDirectives())
        if (name == d.name)
            return &d;
    return nullptr;
}

/** Turn the accumulated state into a SystemConfig, or fail. */
std::optional<CliOptions>
finalize(ParseState st, std::string *error)
{
    auto fail = [&](const std::string &msg) -> std::optional<CliOptions> {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    bool transmit;
    if (st.direction == "tx")
        transmit = true;
    else if (st.direction == "rx")
        transmit = false;
    else
        return fail("--direction must be tx or rx");

    // --mode and --nic together name one core::Arch.
    SystemConfig cfg;
    if (st.mode == "native") {
        cfg = SystemConfig::native(st.nics);
    } else if (st.mode == "xen") {
        if (!st.nic || *st.nic == "intel")
            cfg = SystemConfig::xenIntel(st.guests);
        else if (*st.nic == "rice")
            cfg = SystemConfig::xenRice(st.guests);
        else
            return fail("--nic must be intel or rice");
        cfg.withNics(st.nics);
    } else if (st.mode == "cdna") {
        cfg = SystemConfig::cdna(st.guests)
                  .withNics(st.nics)
                  .withProtection(st.protection);
    } else if (st.mode == "swpt") {
        cfg = SystemConfig::swPassthrough(st.guests).withNics(st.nics);
    } else {
        return fail("--mode must be native, xen, cdna, or swpt");
    }
    if (st.nic && st.mode != "xen")
        return fail("--nic requires --mode xen");
    if (!st.protection && st.mode != "cdna")
        return fail("--no-protection requires --mode cdna");
    cfg.transmit(transmit);

    if (st.iommu == "none")
        cfg.withIommu(mem::Iommu::Mode::kNone);
    else if (st.iommu == "device")
        cfg.withIommu(mem::Iommu::Mode::kPerDevice);
    else if (st.iommu == "context")
        cfg.withIommu(mem::Iommu::Mode::kPerContext);
    else
        return fail("--iommu must be none, device, or context");

    if (st.transport == "tcp")
        cfg.transport(kTcp);
    else if (st.transport != "open")
        return fail("--transport must be open or tcp");

    cfg.withSeed(st.seed);
    cfg.withFaults(std::move(st.faults));

    st.opt.config = std::move(cfg);
    st.opt.warmup = sim::milliseconds(static_cast<double>(st.warmupMs));
    st.opt.measure = sim::seconds(st.seconds);
    st.opt.samplePeriod = sim::microseconds(st.sampleUs);
    // Sampled series land in --trace and --stats-json; a filter picks
    // trace lanes, which only the trace has.
    if (st.opt.samplePeriod > 0 && st.opt.traceFile.empty() &&
        st.opt.statsJsonFile.empty())
        return fail("--sample-period would write nothing without --trace "
                    "or --stats-json");
    if (!st.opt.traceFilter.empty() && st.opt.traceFile.empty())
        return fail("--trace-filter would write nothing without --trace");
    return std::move(st.opt);
}

} // namespace

const std::vector<CliOptionSpec> &
cliOptionTable()
{
    static const std::vector<CliOptionSpec> table = [] {
        std::vector<CliOptionSpec> t;
        for (const Spec &s : kSpecs)
            t.push_back({s.name, s.argName ? s.argName : "", s.help,
                         s.group});
        for (const FaultDirective &d : faultDirectives())
            t.push_back({std::string("--") + d.name, d.argName, d.help,
                         "fault injection"});
        return t;
    }();
    return table;
}

std::string
cliOptionUsage(const CliOptionSpec &s)
{
    constexpr std::size_t kHelpCol = 22;
    std::string out = "  " + s.name;
    if (s.takesValue())
        out += " " + s.argName;
    if (out.size() + 2 > kHelpCol)
        out += "  ";
    else
        out.resize(kHelpCol, ' ');
    // Indent continuation lines under the help column.
    for (char c : s.help) {
        out += c;
        if (c == '\n')
            out.append(kHelpCol, ' ');
    }
    out += '\n';
    return out;
}

std::string
cliUsage()
{
    std::string out = "usage: cdna_sim [options]\n"
                      "\n"
                      "options accept both \"--opt value\" and "
                      "\"--opt=value\".\n";
    std::string group;
    for (const CliOptionSpec &s : cliOptionTable()) {
        if (s.group != group) {
            group = s.group;
            out += "\n" + group + ":\n";
        }
        out += cliOptionUsage(s);
    }
    return out;
}

std::optional<CliOptions>
parseCli(const std::vector<std::string> &args, std::string *error)
{
    ParseState st;
    auto fail = [&](const std::string &msg) -> std::optional<CliOptions> {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    // Accept both "--opt value" and "--opt=value".
    std::vector<std::string> argv;
    argv.reserve(args.size());
    for (const std::string &a : args) {
        std::size_t eq;
        if (a.size() > 2 && a.compare(0, 2, "--") == 0 &&
            (eq = a.find('=')) != std::string::npos) {
            argv.push_back(a.substr(0, eq));
            argv.push_back(a.substr(eq + 1));
        } else {
            argv.push_back(a);
        }
    }

    for (std::size_t i = 0; i < argv.size(); ++i) {
        if (const FaultDirective *d = findDirective(argv[i])) {
            const std::string &flag = argv[i];
            if (++i >= argv.size())
                return fail(flag + " needs a value");
            if (!st.faults.apply(d->name, argv[i]))
                return fail(flag + " needs " + d->argName + ", got \"" +
                            argv[i] + "\"");
            continue;
        }
        const Spec *spec = findSpec(argv[i]);
        if (!spec)
            return fail("unknown option: " + argv[i]);
        std::string value;
        if (spec->argName) {
            if (i + 1 >= argv.size())
                return fail(std::string(spec->name) + " needs a value");
            value = argv[++i];
        }
        std::string err;
        if (!spec->handle(st, value, &err))
            return fail(err);
        if (st.opt.help)
            return std::move(st.opt);
    }

    return finalize(std::move(st), error);
}

} // namespace cdna::core
