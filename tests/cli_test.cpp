//===- cli_test.cpp - Regression tests for uspec CLI arg handling --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Drives the real `uspec` binary (path injected by CMake as USPEC_CLI_PATH)
// and pins the argument-handling contract: unknown subcommands and unknown
// flags name the offending token on stderr and exit with status 2; valid
// invocations keep working. Also covers `analyze --json` end to end.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output; ///< stdout + stderr interleaved.
};

/// Runs `uspec <args>` through the shell, merging stderr into the captured
/// output.
RunResult runCli(const std::string &ArgString) {
  std::string Command = std::string(USPEC_CLI_PATH) + " " + ArgString + " 2>&1";
  RunResult R;
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Command;
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// Reads a whole file ("" when absent).
std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// A fresh directory holding an 8-program generated corpus; returns its
/// path (with a trailing slash) and the file arguments in \p Files.
std::string makeCorpusDir(const std::string &Name, std::string &Files) {
  std::string Dir = testing::TempDir() + Name + "/";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  runCli("gen --profile java -n 8 --seed 11 -o " + Dir + "corpus");
  Files.clear();
  for (int I = 0; I < 8; ++I)
    Files += " " + Dir + "corpus/prog" + std::to_string(I) + ".mini";
  return Dir;
}

/// Writes a small valid MiniLang program and returns its path.
std::string writeTinyProgram() {
  std::string Path = testing::TempDir() + "cli_test_prog.mini";
  std::ofstream Out(Path);
  Out << "class Main { def main() { var m = new Map(); m.put(\"k\", 1); "
         "var a = m.get(\"k\"); var b = m.get(\"k\"); } }\n";
  return Path;
}

} // namespace

TEST(Cli, UnknownSubcommandNamesTokenAndExits2) {
  RunResult R = runCli("frobnicate");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("unknown subcommand 'frobnicate'"),
            std::string::npos)
      << R.Output;

  // `worker` (the removed training worker) is not a subcommand.
  R = runCli("worker --connect unix:/nonexistent.sock");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("unknown subcommand 'worker'"), std::string::npos)
      << R.Output;
}

TEST(Cli, UnknownFlagsNameTokenAndExit2) {
  struct Case {
    const char *Args;
    const char *Token;
  } Cases[] = {
      {"gen --bogus", "'--bogus'"},
      {"learn a.mini --frob", "'--frob'"},
      {"train a.mini --frob", "'--frob'"},
      {"train a.mini --distributed", "'--distributed'"},
      {"train a.mini --provenance", "'--provenance'"},
      {"select run.uspb --nope", "'--nope'"},
      {"analyze a.mini --wat", "'--wat'"},
      {"serve --listen", "'--listen'"},
      {"query --socket s --zap", "'--zap'"},
      {"check --strict", "'--strict'"},
  };
  for (const Case &C : Cases) {
    RunResult R = runCli(C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(C.Token), std::string::npos)
        << C.Args << ": " << R.Output;
  }

  // Training writes no events, so learn/train take no --events: the flag
  // is rejected before its file is created.
  std::string Events = testing::TempDir() + "cli_test_train_events.jsonl";
  std::filesystem::remove(Events);
  RunResult R = runCli("train a.mini -o a.uspb --events " + Events);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("'--events'"), std::string::npos) << R.Output;
  EXPECT_FALSE(std::filesystem::exists(Events));
}

TEST(Cli, StrayPositionalsAreErrors) {
  RunResult R = runCli("select a.uspb extra.uspb");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("'extra.uspb'"), std::string::npos) << R.Output;

  R = runCli("analyze a.mini b.mini");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("'b.mini'"), std::string::npos) << R.Output;

  R = runCli("info a.uspb b.uspb");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("'b.uspb'"), std::string::npos) << R.Output;
}

TEST(Cli, MissingOptionValuesAreNamed) {
  struct Case {
    const char *Args;
    const char *Option;
  } Cases[] = {
      {"gen --seed", "'--seed'"},
      {"learn a.mini -o", "'-o'"},
      {"analyze --specs", "'--specs'"},
      {"serve --workers", "'--workers'"},
      {"query --socket", "'--socket'"},
  };
  for (const Case &C : Cases) {
    RunResult R = runCli(C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(C.Option), std::string::npos)
        << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find("requires a value"), std::string::npos)
        << C.Args << ": " << R.Output;
  }
}

TEST(Cli, NoArgumentsPrintsUsage) {
  RunResult R = runCli("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

TEST(Cli, ValidInvocationsStillWork) {
  std::string Prog = writeTinyProgram();

  RunResult Check = runCli("check " + Prog);
  EXPECT_EQ(Check.ExitCode, 0) << Check.Output;
  EXPECT_NE(Check.Output.find("ok"), std::string::npos) << Check.Output;

  RunResult Analyze = runCli("analyze " + Prog);
  EXPECT_EQ(Analyze.ExitCode, 0) << Analyze.Output;
  EXPECT_NE(Analyze.Output.find("aliasing pairs"), std::string::npos)
      << Analyze.Output;
}

TEST(Cli, AnalyzeJsonEmitsOneJsonLine) {
  std::string Prog = writeTinyProgram();
  RunResult R = runCli("analyze " + Prog + " --json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  ASSERT_FALSE(R.Output.empty());
  // One line, a JSON object with the analyze payload fields.
  EXPECT_EQ(R.Output.find('\n'), R.Output.size() - 1) << R.Output;
  EXPECT_EQ(R.Output.front(), '{');
  for (const char *Field : {"\"specs\":", "\"fingerprint\":",
                            "\"alias_pairs\":", "\"alias_count\":"})
    EXPECT_NE(R.Output.find(Field), std::string::npos)
        << Field << " missing in " << R.Output;

  // Deterministic across runs.
  EXPECT_EQ(runCli("analyze " + Prog + " --json").Output, R.Output);
}

TEST(Cli, AnalyzeJsonReportsParseErrorsAsJson) {
  std::string Path = testing::TempDir() + "cli_test_broken.mini";
  std::ofstream(Path) << "class {";
  RunResult R = runCli("analyze " + Path + " --json");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("\"error\":{\"kind\":\"parse_error\""),
            std::string::npos)
      << R.Output;
}

TEST(Cli, DirectoryInputIsQuarantinedUnreadable) {
  std::string Files;
  std::string Dir = makeCorpusDir("cli_test_dir_input", Files);
  std::filesystem::create_directories(Dir + "subdir");
  RunResult R = runCli("train" + Files + " " + Dir + "subdir " + Dir +
                       "missing.mini -o " + Dir + "out.uspb --stats");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("error: cannot read " + Dir +
                          "subdir: Is a directory\n"
                          "warning: quarantined " +
                          Dir + "subdir (unreadable)\n"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("error: cannot read " + Dir +
                          "missing.mini: No such file or directory\n"
                          "warning: quarantined " +
                          Dir + "missing.mini (unreadable)\n"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"quarantined_count\": 2"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("(8 programs,"), std::string::npos) << R.Output;
}

TEST(Cli, FrontEndDiagnosticsAreThreadCountInvariant) {
  // Two bad files between good ones: a parse error and a lowering error.
  // Files are lowered on the worker threads, but diagnostics print in file
  // order, so the whole output and the artifact match the 1-thread run.
  std::string Files;
  std::string Dir = makeCorpusDir("cli_test_frontend_threads", Files);
  std::ofstream(Dir + "bad_parse.mini") << "this is not minilang {\n";
  std::ofstream(Dir + "bad_lower.mini")
      << "class A { def f() { var u = new Map(); var u = 1; } }\n";
  std::string Inputs = " " + Dir + "corpus/prog0.mini " + Dir +
                       "bad_parse.mini" + Files + " " + Dir +
                       "bad_lower.mini";
  RunResult One = runCli("train" + Inputs + " -o " + Dir +
                         "out.uspb --threads 1");
  std::string OneBytes = slurp(Dir + "out.uspb");
  RunResult Four = runCli("train" + Inputs + " -o " + Dir +
                          "out.uspb --threads 4");
  EXPECT_EQ(One.ExitCode, 0) << One.Output;
  EXPECT_EQ(Four.ExitCode, 0) << Four.Output;
  EXPECT_EQ(Four.Output, One.Output);
  EXPECT_FALSE(OneBytes.empty());
  EXPECT_EQ(slurp(Dir + "out.uspb"), OneBytes);
  size_t Parse = One.Output.find("quarantined " + Dir + "bad_parse.mini");
  size_t Lower = One.Output.find("quarantined " + Dir + "bad_lower.mini");
  ASSERT_NE(Parse, std::string::npos) << One.Output;
  ASSERT_NE(Lower, std::string::npos) << One.Output;
  EXPECT_LT(Parse, Lower);

  // --strict stops at the first bad file in file order at any thread count.
  RunResult StrictOne = runCli("train" + Inputs + " -o " + Dir +
                               "strict.uspb --strict --threads 1");
  RunResult StrictFour = runCli("train" + Inputs + " -o " + Dir +
                                "strict.uspb --strict --threads 4");
  EXPECT_EQ(StrictOne.ExitCode, 1);
  EXPECT_EQ(StrictFour.ExitCode, 1);
  EXPECT_EQ(StrictFour.Output, StrictOne.Output);
  EXPECT_NE(StrictOne.Output.find(Dir + "bad_parse.mini:"), std::string::npos)
      << StrictOne.Output;
  EXPECT_EQ(StrictOne.Output.find("bad_lower"), std::string::npos)
      << StrictOne.Output;
}
