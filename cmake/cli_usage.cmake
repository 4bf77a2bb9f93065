# Exit-code and usage-message contract of the mlpctl CLI (registered as
# the `mlpctl_cli_usage` ctest): 2 for a missing/unknown subcommand (global
# usage printed), 3 for a known subcommand with missing required flags, a
# flag its usage does not name or a stray argument (that subcommand's usage
# printed) — so
# wrapper scripts can tell a typo from a bad invocation from a real
# failure.
#
# Usage: cmake -DMLPCTL=<path> -P cli_usage.cmake

if(NOT DEFINED MLPCTL)
  message(FATAL_ERROR "pass -DMLPCTL=<mlpctl binary>")
endif()

function(expect_exit code)
  execute_process(COMMAND ${MLPCTL} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR
            "mlpctl ${ARGN}: expected exit ${code}, got ${rc}\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "mlpctl ${ARGN}: no usage message on stderr:\n${err}")
  endif()
  set(last_stderr "${err}" PARENT_SCOPE)
endfunction()

# No subcommand / unknown subcommand -> 2, global usage.
expect_exit(2)
expect_exit(2 frobnicate)
if(NOT last_stderr MATCHES "unknown subcommand 'frobnicate'")
  message(FATAL_ERROR "unknown subcommand not named in:\n${last_stderr}")
endif()

# Known subcommand, missing required flags -> 3, per-subcommand usage only.
expect_exit(3 fit)
if(NOT last_stderr MATCHES "mlpctl fit" OR last_stderr MATCHES "mlpctl serve")
  message(FATAL_ERROR "fit usage should show only fit:\n${last_stderr}")
endif()
expect_exit(3 serve --port 80)
if(NOT last_stderr MATCHES "mlpctl serve" OR last_stderr MATCHES "mlpctl fit")
  message(FATAL_ERROR "serve usage should show only serve:\n${last_stderr}")
endif()
expect_exit(3 generate --users 10)
expect_exit(3 stats)
expect_exit(3 eval)
expect_exit(3 resume --data somewhere)

# ingest shares the same contract: all four required flags or exit 3 with
# ingest's own usage.
expect_exit(3 ingest)
expect_exit(3 ingest --data somewhere --load model.snap --delta d)
if(NOT last_stderr MATCHES "mlpctl ingest" OR last_stderr MATCHES "mlpctl serve")
  message(FATAL_ERROR "ingest usage should show only ingest:\n${last_stderr}")
endif()

# The scale subcommands follow the same required-flag contract.
expect_exit(3 genworld --users 1000)
expect_exit(3 pack --data somewhere)

# Numeric flags must be fully numeric: a non-numeric value is a usage
# error (exit 3, flag named, subcommand usage printed) — never atoi's
# silent zero. Validation happens before any dataset/snapshot I/O, so
# these run without fixtures.
expect_exit(3 genworld --users 10k --out d)
if(NOT last_stderr MATCHES "invalid value '10k' for --users")
  message(FATAL_ERROR "bad --users value not named in:\n${last_stderr}")
endif()
expect_exit(3 serve --load m.snap --mmap --port xyz)
if(NOT last_stderr MATCHES "invalid value 'xyz' for --port")
  message(FATAL_ERROR "bad --port value not named in:\n${last_stderr}")
endif()
expect_exit(3 fit --data d --save m.snap --mem_budget_mb 2GB)
if(NOT last_stderr MATCHES "invalid value '2GB' for --mem_budget_mb")
  message(FATAL_ERROR "bad --mem_budget_mb value not named in:\n${last_stderr}")
endif()
expect_exit(3 fit --data d --save m.snap --prune_floor 0.1.2)
expect_exit(3 generate --users -3x --out d)
expect_exit(3 eval --data d --folds five)

# Live ingest daemon flags (ISSUE 10): the --spool* knobs share the same
# usage contract — a bad value or an incoherent combination exits 3 with
# serve's usage, before any dataset/snapshot I/O.
expect_exit(3 serve --data d --load m.snap --spool s --spool_poll_ms xyz)
if(NOT last_stderr MATCHES "invalid value 'xyz' for --spool_poll_ms")
  message(FATAL_ERROR "bad --spool_poll_ms value not named in:\n${last_stderr}")
endif()
expect_exit(3 serve --data d --load m.snap --spool s --spool_poll_ms 0)
expect_exit(3 serve --load m.snap --mmap --spool s)
if(NOT last_stderr MATCHES "mlpctl serve")
  message(FATAL_ERROR "spool+mmap rejection should print serve usage:\n${last_stderr}")
endif()
expect_exit(3 serve --data d --load m.snap --spool_poll_ms 100)
expect_exit(3 serve --data d --load m.snap --save out.snap)
expect_exit(3 serve --data d --load m.snap --spool s --checkpoint_every 2)

# probe: --port is required and must be numeric.
expect_exit(3 probe)
if(NOT last_stderr MATCHES "mlpctl probe" OR last_stderr MATCHES "mlpctl serve")
  message(FATAL_ERROR "probe usage should show only probe:\n${last_stderr}")
endif()
expect_exit(3 probe --port xyz)
if(NOT last_stderr MATCHES "invalid value 'xyz' for --port")
  message(FATAL_ERROR "bad probe --port value not named in:\n${last_stderr}")
endif()

# A flag the subcommand's usage does not name is a usage error (exit 3,
# flag named, subcommand usage printed) — never silently ignored, which
# would run a different program than the caller asked for. Covers the
# retired sweep-program flags and a typo of a real one; checked before any
# dataset/snapshot I/O, so these run without fixtures.
expect_exit(3 fit --data d --save s --sync-every 2)
if(NOT last_stderr MATCHES "unknown flag --sync-every" OR
   NOT last_stderr MATCHES "mlpctl fit")
  message(FATAL_ERROR "retired --sync-every not rejected by name:\n${last_stderr}")
endif()
expect_exit(3 ingest --data d --load m.snap --delta dd --save s
            --resample-burn 1)
if(NOT last_stderr MATCHES "unknown flag --resample-burn")
  message(FATAL_ERROR "retired --resample-burn not rejected by name:\n${last_stderr}")
endif()
expect_exit(3 serve --data d --load m.snap --thread 4)
if(NOT last_stderr MATCHES "unknown flag --thread\n" OR
   NOT last_stderr MATCHES "mlpctl serve")
  message(FATAL_ERROR "typo --thread not rejected by name:\n${last_stderr}")
endif()

# A token that is neither a flag nor a flag's value is a usage error (exit
# 3, token named, subcommand usage printed), and a boolean flag takes only
# a bare form, 0 or 1 — so it cannot swallow the next argument. Checked
# before any dataset/snapshot I/O, so these run without fixtures.
expect_exit(3 stats --data d stray-arg)
if(NOT last_stderr MATCHES "unexpected argument 'stray-arg'" OR
   NOT last_stderr MATCHES "mlpctl stats")
  message(FATAL_ERROR "stray argument not rejected by name:\n${last_stderr}")
endif()
expect_exit(3 eval --data d --warm extra)
if(NOT last_stderr MATCHES "invalid value 'extra' for --warm" OR
   NOT last_stderr MATCHES "mlpctl eval")
  message(FATAL_ERROR "boolean --warm took a value:\n${last_stderr}")
endif()
expect_exit(3 fit --data d --save s --profile=yes)
if(NOT last_stderr MATCHES "invalid value 'yes' for --profile")
  message(FATAL_ERROR "boolean --profile took a value:\n${last_stderr}")
endif()
