#include "support/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/string_utils.hpp"

namespace hipacc::support {

CliParser::CliParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

CliParser& CliParser::Bool(const std::string& name, bool* value,
                           const std::string& help) {
  return Switch(name, help, [value]() {
    *value = true;
    return Status::Ok();
  });
}

CliParser& CliParser::Int(const std::string& name, int* value,
                          const std::string& value_name,
                          const std::string& help) {
  return Value(name, value_name, help,
               [name, value](const std::string& text) {
                 char* end = nullptr;
                 errno = 0;
                 const long parsed = std::strtol(text.c_str(), &end, 10);
                 if (text.empty() || end == nullptr || *end != '\0')
                   return Status::Invalid("flag --" + name +
                                          " expects an integer, got '" + text +
                                          "'");
                 if (errno == ERANGE ||
                     parsed < std::numeric_limits<int>::min() ||
                     parsed > std::numeric_limits<int>::max())
                   return Status::Invalid("flag --" + name + " value '" +
                                          text + "' is out of range for int");
                 *value = static_cast<int>(parsed);
                 return Status::Ok();
               });
}

CliParser& CliParser::String(const std::string& name, std::string* value,
                             const std::string& value_name,
                             const std::string& help) {
  return Value(name, value_name, help, [value](const std::string& text) {
    *value = text;
    return Status::Ok();
  });
}

CliParser& CliParser::Value(const std::string& name,
                            const std::string& value_name,
                            const std::string& help,
                            std::function<Status(const std::string&)> setter) {
  Flag flag;
  flag.name = name;
  flag.value_name = value_name;
  flag.help = help;
  flag.takes_value = true;
  flag.setter = std::move(setter);
  flags_.push_back(std::move(flag));
  return *this;
}

CliParser& CliParser::Switch(const std::string& name, const std::string& help,
                             std::function<Status()> setter) {
  Flag flag;
  flag.name = name;
  flag.help = help;
  flag.takes_value = false;
  flag.action = std::move(setter);
  flags_.push_back(std::move(flag));
  return *this;
}

CliParser& CliParser::Positional(const std::string& name, std::string* value,
                                 const std::string& help, bool required) {
  PositionalArg arg;
  arg.name = name;
  arg.help = help;
  arg.required = required;
  arg.value = value;
  positionals_.push_back(std::move(arg));
  return *this;
}

const CliParser::Flag* CliParser::FindFlag(const std::string& name) const {
  for (const Flag& flag : flags_)
    if (flag.name == name) return &flag;
  return nullptr;
}

Status CliParser::Parse(int argc, const char* const* argv) {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::Ok();
    }
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      const std::string name =
          arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
      const Flag* flag = FindFlag(name);
      if (flag == nullptr)
        return Status::Invalid("unknown flag '--" + name + "' (try --help)");
      if (flag->takes_value) {
        if (eq == std::string::npos)
          return Status::Invalid("flag --" + name + " expects a value: --" +
                                 name + "=" + flag->value_name);
        HIPACC_RETURN_IF_ERROR(flag->setter(arg.substr(eq + 1)));
      } else {
        if (eq != std::string::npos)
          return Status::Invalid("flag --" + name + " does not take a value");
        HIPACC_RETURN_IF_ERROR(flag->action());
      }
      continue;
    }
    if (next_positional >= positionals_.size())
      return Status::Invalid("unexpected argument '" + arg + "' (try --help)");
    *positionals_[next_positional].value = arg;
    ++next_positional;
  }
  for (std::size_t p = next_positional; p < positionals_.size(); ++p)
    if (positionals_[p].required)
      return Status::Invalid("missing required argument <" +
                             positionals_[p].name + "> (try --help)");
  return Status::Ok();
}

std::string CliParser::Help() const {
  std::string usage = "usage: " + program_;
  for (const PositionalArg& arg : positionals_)
    usage += arg.required ? " <" + arg.name + ">" : " [" + arg.name + "]";
  if (!flags_.empty()) usage += " [options]";
  std::string out = usage + "\n";
  if (!summary_.empty()) out += summary_ + "\n";

  auto flag_label = [](const Flag& flag) {
    return flag.takes_value ? "--" + flag.name + "=" + flag.value_name
                            : "--" + flag.name;
  };
  std::size_t width = 0;
  for (const Flag& flag : flags_)
    width = std::max(width, flag_label(flag).size());
  for (const PositionalArg& arg : positionals_)
    width = std::max(width, arg.name.size() + 2);

  if (!positionals_.empty()) out += "\narguments:\n";
  for (const PositionalArg& arg : positionals_) {
    const std::string label = "<" + arg.name + ">";
    out += "  " + label + std::string(width - label.size(), ' ') + "  " +
           arg.help + "\n";
  }
  if (!flags_.empty()) out += "\noptions:\n";
  for (const Flag& flag : flags_) {
    const std::string label = flag_label(flag);
    out += "  " + label + std::string(width - label.size(), ' ') + "  " +
           flag.help + "\n";
  }
  out += "  --help" + std::string(width - 6, ' ') + "  show this message\n";
  return out;
}

int CliParser::HandleArgs(int argc, const char* const* argv) {
  const Status status = Parse(argc, argv);
  if (help_requested_) {
    std::fputs(Help().c_str(), stdout);
    return 0;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(),
                 status.message().c_str());
    return 2;
  }
  return -1;
}

}  // namespace hipacc::support
