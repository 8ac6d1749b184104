/* Unmarshal a snapshot image straight from a mapped file region.

   [Marshal.from_string] needs the whole image as one OCaml string,
   allocated fresh on every load; [caml_input_value_from_block] reads
   the same bytes from memory outside the heap, here a [Unix.map_file]
   bigarray over the snapshot's database section. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/bigarray.h>
#include <caml/intext.h>

CAMLprim value twigmatch_unmarshal_bigarray(value ba)
{
  CAMLparam1(ba); /* keeps the mapping alive while objects are built */
  CAMLlocal1(v);
  v = caml_input_value_from_block((const char *) Caml_ba_data_val(ba),
                                  Caml_ba_array_val(ba)->dim[0]);
  CAMLreturn(v);
}
