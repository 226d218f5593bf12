#include "util/strings.hh"

#include <mutex>
#include <set>
#include <sstream>

#include "util/logging.hh"

namespace spm
{

std::vector<Symbol>
parseSymbols(const std::string &text)
{
    std::vector<Symbol> syms;
    syms.reserve(text.size());
    for (char c : text) {
        if (c == 'x' || c == 'X') {
            syms.push_back(wildcardSymbol);
        } else if (c >= 'A' && c <= 'W') {
            syms.push_back(static_cast<Symbol>(c - 'A'));
        } else if (c >= 'a' && c <= 'w') {
            syms.push_back(static_cast<Symbol>(c - 'a'));
        } else if (c == ' ') {
            continue;
        } else {
            spm_fatal("parseSymbols: unsupported character '", c, "'");
        }
    }
    return syms;
}

std::string
renderSymbols(std::span<const Symbol> syms)
{
    std::ostringstream os;
    for (Symbol s : syms) {
        if (s == wildcardSymbol)
            os << 'X';
        else if (s < 23)
            os << static_cast<char>('A' + s);
        else
            os << '<' << s << '>';
    }
    return os.str();
}

std::vector<Symbol>
bytesToSymbols(const std::string &bytes)
{
    std::vector<Symbol> syms;
    syms.reserve(bytes.size());
    for (char c : bytes)
        syms.push_back(static_cast<Symbol>(static_cast<unsigned char>(c)));
    return syms;
}

std::string
renderMatchPositions(const BitVec &results)
{
    std::ostringstream os;
    bool first = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results.get(i)) {
            if (!first)
                os << ", ";
            os << i;
            first = false;
        }
    }
    return os.str();
}

BitWidth
requiredBits(std::span<const Symbol> syms)
{
    Symbol max_sym = 0;
    for (Symbol s : syms) {
        if (s != wildcardSymbol && s > max_sym)
            max_sym = s;
    }
    BitWidth bits = 1;
    while ((Symbol(1) << bits) <= max_sym)
        ++bits;
    return bits;
}

std::string_view
intern(std::string_view s)
{
    // Never destroyed: a view may be read by another static's destructor.
    static auto *table = new std::set<std::string, std::less<>>;
    static std::mutex mu;
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = table->find(s);
    return it != table->end() ? *it : *table->emplace(s).first;
}

} // namespace spm
