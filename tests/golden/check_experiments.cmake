# Checks that EXPERIMENTS.md quotes the paper goldens verbatim.
#
#   cmake -DDOC=<EXPERIMENTS.md> -DGOLDEN_DIR=<tests/golden/paper>
#         -P check_experiments.cmake
#
# A line that is exactly `<!-- golden: paper/<id> -->` must be followed by
# a fenced block (a line "```", the quoted lines, a line "```") whose
# lines are a contiguous run of whole lines of GOLDEN_DIR/<id>.txt. Every
# golden in GOLDEN_DIR must be quoted at least once. Strings only, never
# lists: the quoted text may hold any character.
cmake_minimum_required(VERSION 3.16)
file(READ "${DOC}" doc)
set(marker "\n<!-- golden: paper/")
string(LENGTH "${marker}" marker_length)
set(fence "```\n")
set(quoted "")
set(errors "")

while(TRUE)
  string(FIND "${doc}" "${marker}" at)
  if(at EQUAL -1)
    break()
  endif()
  math(EXPR at "${at} + ${marker_length}")
  string(SUBSTRING "${doc}" ${at} -1 doc)
  string(FIND "${doc}" " -->\n" end)
  if(end EQUAL -1)
    string(APPEND errors "unterminated golden marker\n")
    break()
  endif()
  string(SUBSTRING "${doc}" 0 ${end} id)
  math(EXPR end "${end} + 5")
  string(SUBSTRING "${doc}" ${end} -1 doc)
  if(NOT id MATCHES "^[a-z0-9_]+$")
    string(APPEND errors "bad golden marker id '${id}'\n")
    continue()
  endif()

  string(FIND "${doc}" "${fence}" open)
  if(NOT open EQUAL 0)
    string(APPEND errors "paper/${id}: the marker is not followed by a fence\n")
    continue()
  endif()
  string(SUBSTRING "${doc}" 4 -1 doc)
  string(FIND "${doc}" "\n${fence}" close)
  if(close LESS 1)
    string(APPEND errors "paper/${id}: empty or unclosed quoted block\n")
    continue()
  endif()
  string(SUBSTRING "${doc}" 0 ${close} block)

  set(golden_file "${GOLDEN_DIR}/${id}.txt")
  if(NOT EXISTS "${golden_file}")
    string(APPEND errors "paper/${id}: no golden ${golden_file}\n")
    continue()
  endif()
  file(READ "${golden_file}" golden)
  string(FIND "\n${golden}" "\n${block}\n" found)
  if(found EQUAL -1)
    string(APPEND errors
           "paper/${id}: quoted block is not a run of the golden's lines:\n"
           "${block}\n")
  endif()
  list(APPEND quoted "${id}")
endwhile()

file(GLOB goldens "${GOLDEN_DIR}/*.txt")
foreach(golden_file ${goldens})
  get_filename_component(id "${golden_file}" NAME_WE)
  if(NOT id IN_LIST quoted)
    string(APPEND errors "paper/${id}: EXPERIMENTS.md quotes no block\n")
  endif()
endforeach()

if(NOT errors STREQUAL "")
  message(FATAL_ERROR "${DOC} does not match the paper goldens:\n${errors}")
endif()
