#include "result_cache.hh"

#include <filesystem>

#include "common/logging.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace opt {

namespace {

constexpr int format_version = 1;

/**
 * Minimal scanner over one JSONL line. The cache only ever reads
 * files it wrote, so the grammar is exactly the writer's output
 * (fixed key order, no insignificant whitespace); anything else is
 * reported as corruption rather than guessed at.
 */
class LineScanner
{
  public:
    explicit LineScanner(std::string_view line) : _rest(line) {}

    bool literal(std::string_view expect)
    {
        if (_rest.substr(0, expect.size()) != expect)
            return false;
        _rest.remove_prefix(expect.size());
        return true;
    }

    /** JSON string literal (the escapes jsonQuote emits). */
    bool string(std::string &out)
    {
        out.clear();
        if (!literal("\""))
            return false;
        while (!_rest.empty() && _rest.front() != '"') {
            char c = _rest.front();
            _rest.remove_prefix(1);
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_rest.empty())
                return false;
            const char esc = _rest.front();
            _rest.remove_prefix(1);
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                // jsonQuote only emits \u00XX for control bytes.
                if (_rest.size() < 4 || _rest[0] != '0' ||
                    _rest[1] != '0')
                    return false;
                int value = 0;
                for (int i = 2; i < 4; ++i) {
                    const char h = _rest[i];
                    value <<= 4;
                    if (h >= '0' && h <= '9')
                        value += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        value += h - 'a' + 10;
                    else
                        return false;
                }
                out += static_cast<char>(value);
                _rest.remove_prefix(4);
                break;
            }
            default:
                return false;
            }
        }
        return literal("\"");
    }

    bool uint(std::uint64_t &out)
    {
        std::string digits;
        if (!string(digits) || digits.empty())
            return false;
        out = 0;
        for (const char c : digits) {
            if (c < '0' || c > '9')
                return false;
            const std::uint64_t next = out * 10 + (c - '0');
            if (next / 10 != out)
                return false;
            out = next;
        }
        return true;
    }

    bool done() const { return _rest.empty(); }

  private:
    std::string_view _rest;
};

std::string
quotedUint(std::uint64_t v)
{
    // Full 64-bit values do not survive as JSON numbers in common
    // tooling (doubles carry 53 bits), so seeds travel as strings.
    return "\"" + std::to_string(v) + "\"";
}

std::string
entryLine(const std::string &spec_key, const CachedResult &entry)
{
    std::string tags;
    for (const auto &cell : entry.row)
        tags += cell.typeTag();
    std::string out = "{\"spec\":" + sweep::jsonQuote(spec_key) +
                      ",\"seed\":" + quotedUint(entry.seed) +
                      ",\"tags\":" + sweep::jsonQuote(tags) +
                      ",\"row\":[";
    for (std::size_t i = 0; i < entry.row.size(); ++i) {
        if (i)
            out += ',';
        out += sweep::jsonQuote(entry.row[i].toString());
    }
    out += "]}";
    return out;
}

std::string
headerLine(std::uint64_t base_seed)
{
    return "{\"qmh_result_cache\":" + std::to_string(format_version) +
           ",\"base_seed\":" + quotedUint(base_seed) + "}";
}

bool
parseEntry(std::string_view line, std::string &spec_key,
           CachedResult &entry)
{
    LineScanner scan(line);
    std::string tags;
    if (!scan.literal("{\"spec\":") || !scan.string(spec_key) ||
        !scan.literal(",\"seed\":") || !scan.uint(entry.seed) ||
        !scan.literal(",\"tags\":") || !scan.string(tags) ||
        !scan.literal(",\"row\":["))
        return false;
    entry.row.clear();
    entry.row.reserve(tags.size());
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (i && !scan.literal(","))
            return false;
        std::string text;
        if (!scan.string(text))
            return false;
        auto cell = sweep::Cell::fromTagged(tags[i], std::move(text));
        if (!cell)
            return false;
        entry.row.push_back(std::move(*cell));
    }
    return scan.literal("]}") && scan.done();
}

} // namespace

std::uint64_t
specSeed(std::uint64_t base_seed, std::string_view canonical_spec)
{
    // Forwarder kept as the documented spec-addressed name; the FNV
    // fold itself lives with the other seeding primitives in sweep.
    return sweep::keySeed(base_seed, canonical_spec);
}

std::string
ResultCache::open(const std::string &path, std::uint64_t base_seed)
{
    if (_backed)
        return "ResultCache: already open on '" + _path + "'";

    // Load into locals and commit only on success: a rejected file
    // must leave the cache untouched (still usable in memory, still
    // openable elsewhere), and must never be appended to with state
    // its header does not declare.
    std::unordered_map<std::string, CachedResult> entries;
    bool saw_header = false;

    if (std::filesystem::exists(path)) {
        // A directory "opens" fine and then fails every read, which
        // would masquerade as an empty cache that never persists.
        if (!std::filesystem::is_regular_file(path))
            return "cache path '" + path + "' is not a regular file";
        std::ifstream in(path);
        if (!in)
            return "cannot read cache file '" + path + "'";

        std::string line;
        std::size_t line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            if (line.empty())
                continue;
            if (!saw_header) {
                LineScanner scan(line);
                std::uint64_t file_seed = 0;
                if (!scan.literal("{\"qmh_result_cache\":" +
                                  std::to_string(format_version)) ||
                    !scan.literal(",\"base_seed\":") ||
                    !scan.uint(file_seed) || !scan.literal("}") ||
                    !scan.done())
                    return "'" + path + "' is not a qmh result " +
                           "cache (bad header)";
                if (file_seed != base_seed)
                    return "cache file '" + path +
                           "' was built with base seed " +
                           std::to_string(file_seed) +
                           ", this run uses " +
                           std::to_string(base_seed) +
                           " — cached rows would not replay "
                           "bit-identically";
                saw_header = true;
                continue;
            }
            std::string spec_key;
            CachedResult entry;
            if (!parseEntry(line, spec_key, entry))
                return "corrupt cache entry at " + path + ":" +
                       std::to_string(line_no);
            if (entry.seed != specSeed(base_seed, spec_key))
                return "cache entry at " + path + ":" +
                       std::to_string(line_no) +
                       " carries a seed that does not match its spec";
            // Last-wins: upsert() appends the repaired version of a
            // stale entry, so a later line for a key supersedes an
            // earlier one.
            entries[std::move(spec_key)] = std::move(entry);
        }
        if (in.bad())
            return "read error while loading cache file '" + path +
                   "'";
    }

    // Entries memoized before open() (in-memory phase) are kept; a
    // key present in both stays with the file's row, which the seed
    // check above proved replayable.
    entries.merge(_entries);
    _entries = std::move(entries);
    _path = path;
    _base_seed = base_seed;
    _backed = true;
    _needs_header = !saw_header;
    return "";
}

const CachedResult *
ResultCache::lookup(const std::string &spec_key) const
{
    const auto it = _entries.find(spec_key);
    return it == _entries.end() ? nullptr : &it->second;
}

bool
ResultCache::insert(const std::string &spec_key, std::uint64_t seed,
                    std::vector<sweep::Cell> row)
{
    if (_entries.count(spec_key))
        return false;
    upsert(spec_key, seed, std::move(row));
    return true;
}

void
ResultCache::upsert(const std::string &spec_key, std::uint64_t seed,
                    std::vector<sweep::Cell> row)
{
    auto &entry = _entries[spec_key];
    entry.seed = seed;
    entry.row = std::move(row);
    if (_backed) {
        if (!_append.is_open()) {
            _append.open(_path, std::ios::app);
            if (_append && _needs_header) {
                _append << headerLine(_base_seed) << '\n';
                _needs_header = false;
            }
        }
        if (_append) {
            // Flush per entry: a cancelled sweep keeps every point it
            // already paid for.
            _append << entryLine(spec_key, entry) << '\n';
            _append.flush();
        }
        if (!_append)
            warn("ResultCache: append to '", _path,
                 "' failed; results from this run will not persist");
    }
}

} // namespace opt
} // namespace qmh
