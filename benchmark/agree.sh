#!/usr/bin/env bash
# Runs the full set of workloads twice on one seed (A, B) and fails unless
# every end-to-end metric of every workload agrees within its own bound.
# With --repeats N: N sets on N consecutive seeds, printing each metric's
# median, quartiles and spread. Also takes --seed N and --seconds S.
exec "$(dirname "$0")/run.sh" agree "$@"
