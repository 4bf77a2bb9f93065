# Drives the real mlpctl binary through the full snapshot workflow:
# generate a tiny world, fit with an early checkpoint, resume the fit to
# completion from the saved file (byte-identical to an uninterrupted fit,
# at 1 and 4 threads), and evaluate the persisted model. Runs as a ctest
# (registered in CMakeLists.txt), so any drift in the on-disk
# model-snapshot format breaks the build even without GTest installed.
#
# Usage: cmake -DMLPCTL=<path> -DWORK_DIR=<dir> -P snapshot_smoke.cmake

if(NOT DEFINED MLPCTL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DMLPCTL=<mlpctl binary> -DWORK_DIR=<scratch dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "snapshot smoke step failed (exit ${rc}): ${ARGV}")
  endif()
endfunction()

run_step(${MLPCTL} generate --users 300 --seed 7 --out ${WORK_DIR}/data)
# At each thread count: checkpoint mid-fit so resume actually has sweeps
# left to run, resume it to completion, and require the resumed snapshot
# to be byte-identical to an uninterrupted fit of the same program.
foreach(threads 1 4)
  set(prefix ${WORK_DIR}/t${threads})
  run_step(${MLPCTL} fit --data ${WORK_DIR}/data --save ${prefix}_model.snap
           --burn 2 --sampling 2 --threads ${threads} --max-sweeps 2)
  run_step(${MLPCTL} resume --data ${WORK_DIR}/data
           --load ${prefix}_model.snap --save ${prefix}_final.snap)
  run_step(${MLPCTL} fit --data ${WORK_DIR}/data --save ${prefix}_full.snap
           --burn 2 --sampling 2 --threads ${threads})
  run_step(${CMAKE_COMMAND} -E compare_files ${prefix}_final.snap
           ${prefix}_full.snap)
endforeach()
run_step(${MLPCTL} eval --data ${WORK_DIR}/data
         --load ${WORK_DIR}/t1_final.snap)

# The resumed snapshot must be complete and loadable; a second resume of a
# finished model is a no-op fit that must still succeed (serving reload).
run_step(${MLPCTL} resume --data ${WORK_DIR}/data
         --load ${WORK_DIR}/t1_final.snap)
