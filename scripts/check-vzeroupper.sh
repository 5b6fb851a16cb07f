#!/usr/bin/env bash
# Checks that the AVX2 and AVX-512 kernels clear the upper register
# state on every exit.
#
# A function that leaves dirty upper halves in the ymm or zmm registers
# makes every later SSE instruction in the process pay a state-transition
# penalty (or a false dependency), which no unit test sees and only an
# end-to-end timing shows.  GCC inserts `vzeroupper` itself, but not on
# every path (a tail call out of an AVX2 loop has gone without one), so
# this reads the compiled objects instead of trusting the compiler.
#
# For xor_codec.cpp.o, gf8.cpp.o and crc32c.cpp.o under BUILD_DIR (a
# Release build), every function that touches a %ymm register, or one of
# %zmm0-%zmm15 (the registers whose upper halves vzeroupper clears), must
# have, before each `ret` and each jump out of the function (a tail
# call), a `vzeroupper` with no such use between the two, in address
# order.  An exit ahead of all of the function's vector code fails too:
# address order cannot tell whether a jump from that code reaches it.  An
# object with no such function fails as well, so a renamed or
# rebuilt-without-AVX kernel cannot pass unseen.
#
# Usage: scripts/check-vzeroupper.sh [BUILD_DIR]    (default: build)
# Exit status: 0 when every exit is clean, 1 otherwise.
set -euo pipefail

build=${1:-build}
status=0
for name in xor_codec gf8 crc32c; do
  obj=$(find "$build" -path "*/src/core/$name.cpp.o" -print -quit)
  if [[ -z $obj ]]; then
    echo "check-vzeroupper: no $name.cpp.o under $build" >&2
    status=1
    continue
  fi
  objdump -dr --no-show-raw-insn "$obj" | awk -v obj="$obj" '
    # An exit is clean when the last upper-state-relevant instruction
    # before it was a vzeroupper.
    function check_exit(addr, what) {
      if (last == "vzeroupper") return
      why = "no vzeroupper before it"
      if (last == "upper") why = "ymm/zmm use since the last vzeroupper"
      msgs = msgs sprintf("%s: %s: %s at 0x%s with %s\n", obj, fn, what,
                          addr, why)
      ++fn_bad
    }
    # A direct jmp leaves the function when its relocation names another
    # symbol or its target label is another function.
    function resolve_jmp(reloc) {
      if (reloc != "") check_exit(jmp_addr, "tail call to " reloc)
      else if (jmp_target != fn) check_exit(jmp_addr, "jmp to " jmp_target)
      jmp_pending = 0
    }
    function end_function() {
      if (jmp_pending) resolve_jmp("")
      if (touched) {
        ++upper_fns
        bad += fn_bad
        printf "%s", msgs
      }
      msgs = ""; fn_bad = 0; touched = 0; last = "none"
    }
    /^[0-9a-f]+ <.+>:$/ {
      end_function()
      fn = $2
      sub(/^</, "", fn)
      sub(/>:$/, "", fn)
      next
    }
    /^[ \t]+[0-9a-f]+: R_X86_64_/ {
      if (jmp_pending) resolve_jmp($3)
      next
    }
    /^[ \t]+[0-9a-f]+:\t/ {
      if (jmp_pending) resolve_jmp("")
      addr = $1
      sub(/:$/, "", addr)
      insn = $0
      sub(/^[ \t]+[0-9a-f]+:\t/, "", insn)
      split(insn, word, /[ \t]+/)
      op = word[1]
      if (op == "bnd" || op == "notrack" || op == "rep") op = word[2]
      if (op == "vzeroupper" || op == "vzeroall") {
        last = "vzeroupper"
      } else if (insn ~ /%ymm/ || insn ~ /%zmm([0-9]|1[0-5])([^0-9]|$)/) {
        last = "upper"
        touched = 1
      } else if (op ~ /^ret/) {
        check_exit(addr, op)
      } else if (op ~ /^jmp/) {
        if (insn ~ /\*/) {
          check_exit(addr, "indirect jmp")
        } else {
          jmp_pending = 1
          jmp_addr = addr
          jmp_target = insn
          sub(/^[^<]*</, "", jmp_target)
          sub(/(\+0x[0-9a-f]+)?>.*$/, "", jmp_target)
        }
      }
    }
    END {
      end_function()
      if (upper_fns == 0) {
        printf "%s: no function touches a ymm or zmm0-15 register\n", obj
        exit 1
      }
      printf "%s: %d ymm/zmm function(s), %d unclean exit(s)\n", obj,
             upper_fns, bad
      exit (bad > 0)
    }' || status=1
done
exit "$status"
