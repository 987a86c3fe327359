"""modbench: a workbench for congruence modularity of finite algebras.

Decide congruence-identity inclusions in the variety generated by a finite
algebra, search for minimal Day / Gumm / Jonsson / ALVIN term chains,
compute modularity spectra, and verify the bound formulas tying term
counts to spectrum values.
"""

from .algebras import (AlgebraError, AlgebraFormatError, FiniteAlgebra,
                       Signature, parse_algebra, serialize_algebra)
from .bounds import BoundError, BoundValue, bound, bound_names
from .catalog import CATALOG, CatalogEntry, CatalogError, get_entry
from .chains import (ChainError, ChainVerdict, SearchResult, TermChain,
                     as_defective, extend_chain, search_day, search_gumm,
                     search_jonsson, verify_chain)
from .checks import (Bound, CheckError, ConcreteResult, PWContext,
                     PWGrammarError, check_concrete, eval_expr, pw_check,
                     spectrum)
from .dsl import (DslError, Identity, expr_str, identity_str, parse_identity)
from .free import (App, CapExceeded, FreeAlgebra, Term, Var, build_free,
                   eval_term, eval_term_vector, parse_term, term_str)
from .relations import (ADMISSIBLE, CONGRUENCE, TOLERANCE, BinRel,
                        GuardExceeded, RelationError, all_congruences, alt,
                        compose, cong_join, converse, enumerate_relations,
                        generate, is_compatible, meet, union)
from .report import consistency_report
from .witness import (WitnessChain, WitnessError, day_witness_chain,
                      find_nte_decomposition, gumm_witness_chain,
                      jonsson_to_day, pad_to_even)

__version__ = "0.1.0"
