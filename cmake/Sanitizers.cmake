# Sanitizer build modes for the whole tree (src/, tests/, bench/, examples/).
#
# Usage:
#   cmake -B build-asan -S . -DERPD_SANITIZE="address;undefined"
#   cmake -B build-tsan -S . -DERPD_SANITIZE=thread
#
# ERPD_SANITIZE is a ;- or ,-separated list drawn from:
#   address | undefined | thread | leak
# ThreadSanitizer cannot be combined with AddressSanitizer or
# LeakSanitizer; the combination is rejected at configure time.
#
# Sanitized builds additionally get -fno-omit-frame-pointer (usable stack
# traces), -fno-sanitize-recover (failures abort so ctest reports them),
# -DERPD_ENABLE_DCHECKS so the ERPD_DCHECK contract layer is exercised even
# in optimized builds, and -D_GLIBCXX_ASSERTIONS so libstdc++ checks its own
# preconditions (operator[] bounds, std::normal_distribution's stddev > 0).

set(ERPD_SANITIZE "" CACHE STRING
    "Semicolon/comma-separated sanitizers: address;undefined | thread | leak")

function(erpd_enable_sanitizers)
  if(NOT ERPD_SANITIZE)
    return()
  endif()

  # Accept both "address,undefined" and "address;undefined".
  string(REPLACE "," ";" _erpd_san_list "${ERPD_SANITIZE}")

  set(_known address undefined thread leak)
  foreach(_san IN LISTS _erpd_san_list)
    if(NOT _san IN_LIST _known)
      message(FATAL_ERROR
        "ERPD_SANITIZE: unknown sanitizer '${_san}' "
        "(expected one of: ${_known})")
    endif()
  endforeach()

  if("thread" IN_LIST _erpd_san_list)
    if("address" IN_LIST _erpd_san_list OR "leak" IN_LIST _erpd_san_list)
      message(FATAL_ERROR
        "ERPD_SANITIZE: 'thread' cannot be combined with 'address'/'leak'")
    endif()
  endif()

  list(JOIN _erpd_san_list "," _erpd_san_flags)
  message(STATUS "ERPD: sanitizers enabled: ${_erpd_san_flags}")

  add_compile_options(-fsanitize=${_erpd_san_flags} -fno-omit-frame-pointer)
  add_link_options(-fsanitize=${_erpd_san_flags})
  if("undefined" IN_LIST _erpd_san_list)
    # Abort on UB instead of printing and continuing, so ctest fails.
    add_compile_options(-fno-sanitize-recover=undefined)
    add_link_options(-fno-sanitize-recover=undefined)
  endif()
  # Sanitizer runs double as the contract-checking tier, for our own
  # contracts and for the standard library's preconditions (bounds,
  # distribution parameters).
  add_compile_definitions(ERPD_ENABLE_DCHECKS=1 _GLIBCXX_ASSERTIONS)
endfunction()
