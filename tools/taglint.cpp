// taglint — static lint forbidding raw integer literals in tag positions.
//
// Every message tag in the codebase must come from the named constants and
// banded allocators in src/comm/tags.hpp (kTagReliableData, kTagPsPush,
// fresh/async band math, kAnyTag). A bare `42` handed to receive() or a
// `.tag = 7` in product code silently collides with the band layout the
// moment someone reorders constants — the exact class of bug the tag-band
// design exists to prevent. This tool walks the C++ sources, strips
// comments and string literals, and flags:
//
//   * designated initializers `.tag = <integer literal>`
//   * integer literals in the tag argument slot of the transport/mailbox
//     matching calls: receive / try_receive / receive_for /
//     receive_for_virtual (3rd arg), try_pop (2nd arg), count_tag_at_least
//     (1st arg), pending_with_tag_at_least (2nd arg)
//
// tags.hpp itself (the single place literals are legal) and tests/ (which
// deliberately exercise raw tags against the banded API) stay in scope —
// ONLY tags.hpp is exempt. Exit 1 with file:line diagnostics on findings.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

/// Replace comments and string/char literals with spaces (newlines kept so
/// line numbers survive).
std::string strip_noise(const std::string& src) {
    std::string out = src;
    enum class Mode { kCode, kLine, kBlock, kString, kChar } mode = Mode::kCode;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const char next = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (mode) {
            case Mode::kCode:
                if (c == '/' && next == '/') {
                    mode = Mode::kLine;
                    out[i] = ' ';
                } else if (c == '/' && next == '*') {
                    mode = Mode::kBlock;
                    out[i] = ' ';
                } else if (c == '"') {
                    mode = Mode::kString;
                    out[i] = ' ';
                } else if (c == '\'') {
                    mode = Mode::kChar;
                    out[i] = ' ';
                }
                break;
            case Mode::kLine:
                if (c == '\n') {
                    mode = Mode::kCode;
                } else {
                    out[i] = ' ';
                }
                break;
            case Mode::kBlock:
                if (c == '*' && next == '/') {
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    ++i;
                    mode = Mode::kCode;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case Mode::kString:
                if (c == '\\') {
                    out[i] = ' ';
                    if (next != '\n') {
                        out[i + 1] = ' ';
                        ++i;
                    }
                } else if (c == '"') {
                    mode = Mode::kCode;
                    out[i] = ' ';
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case Mode::kChar:
                if (c == '\\') {
                    out[i] = ' ';
                    if (next != '\n') {
                        out[i + 1] = ' ';
                        ++i;
                    }
                } else if (c == '\'') {
                    mode = Mode::kCode;
                    out[i] = ' ';
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
        }
    }
    return out;
}

bool is_ident(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when the token starting at `pos` is a bare integer literal
/// (optionally signed). Number-like identifiers (k401) don't match.
bool is_int_literal(const std::string& s, std::size_t pos) {
    if (pos >= s.size()) return false;
    if (s[pos] == '-' || s[pos] == '+') ++pos;
    if (pos >= s.size() || !std::isdigit(static_cast<unsigned char>(s[pos]))) {
        return false;
    }
    return true;
}

std::size_t line_of(const std::string& s, std::size_t pos) {
    return 1 + static_cast<std::size_t>(
                   std::count(s.begin(), s.begin() + static_cast<long>(pos), '\n'));
}

/// Split a call's argument text (between matched parens starting right
/// after `open`) into top-level comma-separated pieces. Returns false when
/// the parens never close (macro soup) — skip such calls.
bool split_args(const std::string& s, std::size_t open,
                std::vector<std::string>* args, std::size_t* close) {
    int depth = 1;
    std::string cur;
    for (std::size_t i = open + 1; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') {
            --depth;
            if (depth == 0) {
                args->push_back(cur);
                *close = i;
                return true;
            }
        }
        if (c == ',' && depth == 1) {
            args->push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    return false;
}

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

struct TagCall {
    const char* name;
    std::size_t tag_arg;  // 0-based index of the tag parameter
};

// Matching functions whose tag slot must never see a raw literal. The arg
// positions track the Transport/Mailbox signatures (receive(rank, source,
// tag), try_pop(source, tag), ...).
constexpr TagCall kTagCalls[] = {
    {"receive", 2},          {"try_receive", 2},
    {"receive_for", 2},      {"receive_for_virtual", 2},
    {"try_pop", 1},          {"count_tag_at_least", 0},
    {"pending_with_tag_at_least", 1},
};

int scan_file(const fs::path& path, std::vector<std::string>* findings) {
    std::ifstream f(path);
    if (!f) return 0;
    std::stringstream buf;
    buf << f.rdbuf();
    const std::string code = strip_noise(buf.str());
    int count = 0;

    // Designated initializer: `.tag = <literal>` (also matches the
    // assignment form `x.tag = 7`, equally illegal outside tags.hpp).
    for (std::size_t i = 0; i + 4 < code.size(); ++i) {
        if (code.compare(i, 4, ".tag") != 0) continue;
        if (i > 0 && is_ident(code[i - 1])) continue;
        std::size_t j = i + 4;
        while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j]))) {
            ++j;
        }
        if (j >= code.size() || code[j] != '=') continue;
        if (j + 1 < code.size() && code[j + 1] == '=') continue;  // comparison
        ++j;
        while (j < code.size() && std::isspace(static_cast<unsigned char>(code[j]))) {
            ++j;
        }
        if (is_int_literal(code, j)) {
            findings->push_back(path.string() + ":" +
                                std::to_string(line_of(code, i)) +
                                ": raw integer literal assigned to .tag");
            ++count;
        }
    }

    // Tag-slot arguments of matching calls.
    for (const TagCall& call : kTagCalls) {
        const std::string name = call.name;
        for (std::size_t i = code.find(name); i != std::string::npos;
             i = code.find(name, i + 1)) {
            if (i > 0 && (is_ident(code[i - 1]) || code[i - 1] == ':')) continue;
            std::size_t j = i + name.size();
            if (j < code.size() && is_ident(code[j])) continue;
            while (j < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[j]))) {
                ++j;
            }
            if (j >= code.size() || code[j] != '(') continue;
            std::vector<std::string> args;
            std::size_t close = 0;
            if (!split_args(code, j, &args, &close)) continue;
            if (args.size() <= call.tag_arg) continue;
            const std::string tag_arg = trim(args[call.tag_arg]);
            if (is_int_literal(tag_arg, 0) &&
                tag_arg.find_first_not_of("+-0123456789'") == std::string::npos) {
                findings->push_back(path.string() + ":" +
                                    std::to_string(line_of(code, i)) +
                                    ": raw integer literal as tag argument of " +
                                    name + "()");
                ++count;
            }
        }
    }
    return count;
}

}  // namespace

int main(int argc, char** argv) {
    fs::path root = ".";
    if (argc > 1) root = argv[1];
    const std::vector<fs::path> scan_dirs = {
        root / "src", root / "tests", root / "bench", root / "examples",
        root / "tools"};

    std::vector<std::string> findings;
    int files = 0;
    for (const fs::path& dir : scan_dirs) {
        if (!fs::exists(dir)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file()) continue;
            const fs::path& p = entry.path();
            const std::string ext = p.extension().string();
            if (ext != ".cpp" && ext != ".hpp" && ext != ".h" && ext != ".cc") {
                continue;
            }
            if (p.filename() == "tags.hpp") continue;  // the one legal home
            ++files;
            scan_file(p, &findings);
        }
    }

    if (!findings.empty()) {
        for (const std::string& f : findings) std::cerr << f << "\n";
        std::cerr << "taglint: " << findings.size()
                  << " raw tag literal(s); use the constants/allocators in "
                     "src/comm/tags.hpp\n";
        return 1;
    }
    std::cout << "taglint: " << files << " files clean\n";
    return 0;
}
