// perfbench_launch — run one program and record its wall time and peak RSS.
//
//   perfbench_launch <result-file> <program> [args...]
//
// Writes "<wall_s> <maxrss_kb> <exit_code>" to <result-file> once the
// program has ended, and exits with the program's exit code. The program
// inherits stdin, stdout and stderr.
//
// Why a launcher: on Linux a child's ru_maxrss also counts the resident
// set of the process that forked it, as it stood at exec. Forked from
// run.py, every front end would report at least the Python interpreter's
// footprint; forked from this small process, the high-water mark is the
// program's.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: perfbench_launch <result-file> <program> [args...]\n");
    return 2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_launch: fork");
    return 127;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("perfbench_launch: execvp");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_launch: wait4");
      return 127;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* f = std::fopen(argv[1], "w");
  if (f == nullptr) {
    std::perror("perfbench_launch: result file");
    return 127;
  }
  std::fprintf(f, "%.9f %ld %d\n", wall_s, usage.ru_maxrss, code);
  if (std::fclose(f) != 0) {
    std::perror("perfbench_launch: result file");
    return 127;
  }
  return code;
}
