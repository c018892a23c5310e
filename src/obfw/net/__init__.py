from .envelope import (
    Envelope,
    FrameCorrupt,
    PROTO_ADDITIVE_MULT3,
    PROTO_DUAL_OUTPUT_CHECK,
    PROTO_FW_EVAL_PRODUCT,
    PROTO_FW_EVAL_SUM,
    PROTO_FW_UPDATE,
    PROTO_FW_ZERO_TEST,
    PROTO_MAJORITY_VOTE,
    PROTO_SC_LOW_ROUNDS,
    PROTO_SC_MALICIOUS,
    PROTO_SC_SEMI_HONEST,
    PROTO_SC_SHARED_INPUTS,
    PROTO_SHAMIR_MULT,
)
from .groups import (
    Group,
    OutOfRange,
    TruncatedPayload,
    ceil_log2,
    decode_elements,
    encode_elements,
    group_addr32,
    group_index,
    group_shift,
    group_z2,
    group_zn2,
    group_zn_compare,
    group_zp,
)
from .kernel import (PartyTimeout, Recv, Rewrite, Send, add_to_send, recv,
                     rewrite_sends, send)
from .sim import Deadlock, SimNetwork, run_session
from .tcp import ConnectFail, Endpoint, TcpNode, build_mesh, run_tcp_session
from .transcript import Transcript
