(* Pins the baselines' and the Kendo-arbitrated runtimes' cost model:
   simulated makespan, output signature and a digest of every profile
   counter, for every registered workload at scale 0.3 and scheduler
   seed 1.  Signature-only checks would miss a drift in cycles or
   counters; this table catches it.  For Kendo, rfdet-ci and rfdet-pf it
   pins the arbiter's grant times, which reach the makespan and the
   wait counters.  Regenerate a row only with a DESIGN.md note
   explaining the cost-model change. *)

module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry
module Profile = Rfdet_sim.Profile

let fence_runtimes = Runner.[ Pthreads; Dthreads; Coredet ]

let kendo_runtimes = Runner.[ Kendo; rfdet_ci; rfdet_pf ]

let profile_digest p =
  Profile.fields p
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let measure runtime (w : Rfdet_workloads.Workload.t) =
  let r = Runner.run ~scale:0.3 ~sched_seed:1L runtime w in
  (r.Runner.sim_time, r.Runner.signature, profile_digest r.Runner.profile)

(* (workload, runtime, sim_time, signature, profile digest) *)
let expected : (string * string * int * string * string) list =
  [
    ("racey", "pthreads", 65683, "259dea329ef11148d47b09a5ec7b58ea", "3acf20fc529ee23fac1870a27b50b66e");
    ("ocean", "pthreads", 75723, "f609beebf68b408fb36398ac63919a3f", "d1223537cc77e46dde7af8ed47af7083");
    ("water-ns", "pthreads", 408105, "acdf6dc09c244f36897825533168e1de", "5b3bf4ad00d1b8501f779561b347de56");
    ("water-sp", "pthreads", 353779, "8293e3942eaaf9119bc1589334bbb187", "68982f7e82c06c22fcc0876c68f260df");
    ("fft", "pthreads", 310609, "a3c41f6d0ab9d8d21479ef501e0d586a", "1b7a33f1c2ae4b84175a0b7e8c45d555");
    ("radix", "pthreads", 152899, "5ab1edf1cea4155f856fedf017fd8659", "9bc588e09189a0a841e55c81f921bdcd");
    ("lu-con", "pthreads", 103571, "e6928666fe4854ff41446c69c2589934", "c308752cef91617fff03ecf431927fd3");
    ("lu-non", "pthreads", 103571, "8bbf6044f402be55490828e49697c404", "c308752cef91617fff03ecf431927fd3");
    ("linear_regression", "pthreads", 92085, "1ab92549e9fede85b9c20bc411484e62", "5733e7970fb171d2e28427bf36a43c06");
    ("matrix_multiply", "pthreads", 59248, "a49997cd3edd0d2fad4d46bcba6c9fd6", "a65ad24842c7ad9f3e5e5bb5e4d0b1f3");
    ("pca", "pthreads", 139480, "468eac9d03283fb0478ab552d4598f94", "5625e97c692e997a0e1d64278cf4c73d");
    ("wordcount", "pthreads", 203730, "e4face3abd00a5aaa37584549c15d24f", "ca66568100bebab5e06313ba95a4b78f");
    ("string_match", "pthreads", 128051, "083f553d1fe3748847346cbb55828997", "0211dff6797fdae5e5c3d799437cc8fd");
    ("blackscholes", "pthreads", 84219, "c2b14cd5f3b234688feb6ea6807a652c", "eef50e893fae6dd40c554398c30b6cf4");
    ("swaptions", "pthreads", 60919, "b21b07d3d8e2728db773bf4c4bb366a2", "036becdbfb3f85ecd24d9502a8d2c3be");
    ("dedup", "pthreads", 249797, "160d085a2060624482db266643a10df1", "93d8d473b05eff51ee957af1c88261fb");
    ("ferret", "pthreads", 715282, "8628f59cde705040787e7bfe3ee95ad8", "e60776ad39dc517aaf007b7f5188fcb2");
    ("micro-lock", "pthreads", 58206, "f336cf636abe3c3f34af2f56508aa947", "317b93eccd0f45be9db1f6224d5ae651");
    ("micro-handoff", "pthreads", 44482, "521300611a402d69c8a0d85414726078", "08d15b8429d53b96632a82c71574afbe");
    ("micro-barrier", "pthreads", 44175, "14178fb8d84d3d1fba20a7a1ca2b3396", "c6230863b6773ce20c2969dd811390a2");
    ("micro-atomic", "pthreads", 58206, "c8c25c21826d4b3b11c893c3b933f125", "83e849ddc23639b0fbbb9a8e03c5b767");
    ("micro-rwlock", "pthreads", 58206, "485b112a2072be2ea53e86c9b1f3f842", "71bfb34b64dbdd413e4607a31803b16b");
    ("micro-sem", "pthreads", 58206, "948c81a58083f5aa64902f10677fdb57", "317b93eccd0f45be9db1f6224d5ae651");
    ("micro-steal", "pthreads", 58552, "740a8449e9fd79c429b6fdc22b1fbce4", "7ef3a2331ada4ac2bf339ee3204d6aff");
    ("prodcons", "pthreads", 77992, "0e51e5192dfccb77675f6f8e235ff3a6", "4d87bb452ca4c063c8e7a8e012fec5a4");
    ("kvserver", "pthreads", 178356, "5bb78d91e0ffbbebdc77d2df4a547566", "ad87e89aae4d04bd9cf32abc4870dd35");
    ("kvserver-rw", "pthreads", 107910, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "cd0aee3c28057403f59c8233cf723874");
    ("racey", "dthreads", 73078, "5a93b18e4ba7ea929e024987b2df6437", "3ee061e04e92851abb36306879bd10a4");
    ("ocean", "dthreads", 588753, "f609beebf68b408fb36398ac63919a3f", "174c8467af62f5a945c835fb0b4eb392");
    ("water-ns", "dthreads", 1204786, "acdf6dc09c244f36897825533168e1de", "d33c61af1068fe84fb563406f6ede045");
    ("water-sp", "dthreads", 1517663, "8293e3942eaaf9119bc1589334bbb187", "b7956cceac5e58c5666230edd461c12b");
    ("fft", "dthreads", 1557626, "a3c41f6d0ab9d8d21479ef501e0d586a", "205725a3f732e0f00b32484fab4b2082");
    ("radix", "dthreads", 730209, "e86ff3a61b18fbe2d03e2ebd187bc983", "7e05e0ec325357255d146b3a823ed12d");
    ("lu-con", "dthreads", 283619, "e6928666fe4854ff41446c69c2589934", "0ea45e749fed71550259becbd2c53388");
    ("lu-non", "dthreads", 319806, "8bbf6044f402be55490828e49697c404", "12b43accd3545cf2795a8121431c0767");
    ("linear_regression", "dthreads", 134973, "1ab92549e9fede85b9c20bc411484e62", "5fe7d1b4786f7b098ba49c3de44c2af2");
    ("matrix_multiply", "dthreads", 44164, "a49997cd3edd0d2fad4d46bcba6c9fd6", "534d88a96a583618e9d1253828d10db5");
    ("pca", "dthreads", 225330, "468eac9d03283fb0478ab552d4598f94", "74ab3986fcc3d47c816635db8533a2ab");
    ("wordcount", "dthreads", 172997, "e4face3abd00a5aaa37584549c15d24f", "60b913578c9c73b28c431dd623280e05");
    ("string_match", "dthreads", 213808, "083f553d1fe3748847346cbb55828997", "12def88f7a0d356d9a2027ee7bffd266");
    ("blackscholes", "dthreads", 201991, "c2b14cd5f3b234688feb6ea6807a652c", "5f9756010978ecabbb849c24c6ad3654");
    ("swaptions", "dthreads", 72758, "b21b07d3d8e2728db773bf4c4bb366a2", "c281192cc7f1d2d9bec26c8210be618f");
    ("dedup", "dthreads", 1739918, "160d085a2060624482db266643a10df1", "b4b7e26287f0f23a745c4b39efed8a51");
    ("ferret", "dthreads", 5622770, "8628f59cde705040787e7bfe3ee95ad8", "03ea021bc50aae3b9ae8b2e246b83676");
    ("micro-lock", "dthreads", 36917, "f336cf636abe3c3f34af2f56508aa947", "6edf86dccba98e0919d43d3f0a8d779b");
    ("micro-handoff", "dthreads", 26326, "521300611a402d69c8a0d85414726078", "c2389e820b9aa1ad1491a9cfc91656b0");
    ("micro-barrier", "dthreads", 14133, "14178fb8d84d3d1fba20a7a1ca2b3396", "b4aefa03a4500c8a11055c68ad065329");
    ("micro-atomic", "dthreads", 24524, "c8c25c21826d4b3b11c893c3b933f125", "590baa621edbc597a8e4e0dd42fe6c79");
    ("micro-rwlock", "dthreads", 40123, "485b112a2072be2ea53e86c9b1f3f842", "44ccd10ac8b15653ec5d1c099965cf7f");
    ("micro-sem", "dthreads", 36917, "948c81a58083f5aa64902f10677fdb57", "6edf86dccba98e0919d43d3f0a8d779b");
    ("micro-steal", "dthreads", 15712, "740a8449e9fd79c429b6fdc22b1fbce4", "483c96e40124d28fe17a261fcca8a86f");
    ("prodcons", "dthreads", 241449, "0e51e5192dfccb77675f6f8e235ff3a6", "b32c2b2d14a30ad2317613d09eec7042");
    ("kvserver", "dthreads", 1134395, "5bb78d91e0ffbbebdc77d2df4a547566", "214334e6775fb99935f1ae911d03552f");
    ("kvserver-rw", "dthreads", 1162206, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "639aa4a62a583e13b96aecbf20ac3cd7");
    ("racey", "coredet", 53798, "5a93b18e4ba7ea929e024987b2df6437", "1f9346abc99390ff18e053e11b6a6ca6");
    ("ocean", "coredet", 239975, "f609beebf68b408fb36398ac63919a3f", "041ef8b195895417d8d8d75ce38e2f2c");
    ("water-ns", "coredet", 990266, "acdf6dc09c244f36897825533168e1de", "b167e3476c3452f8b1f477701669899c");
    ("water-sp", "coredet", 1008837, "8293e3942eaaf9119bc1589334bbb187", "8a5ddf570a358faad661b403cfaf3cf0");
    ("fft", "coredet", 1235066, "a3c41f6d0ab9d8d21479ef501e0d586a", "c22498ad4e111b3e513921833c3d73ae");
    ("radix", "coredet", 457358, "e86ff3a61b18fbe2d03e2ebd187bc983", "ab77017322cd6454f091c5784da33ce5");
    ("lu-con", "coredet", 158019, "e6928666fe4854ff41446c69c2589934", "0d993640a07a287c1791a0feb8ed933f");
    ("lu-non", "coredet", 163406, "8bbf6044f402be55490828e49697c404", "e0330b25070ab34619e22ae2da971a51");
    ("linear_regression", "coredet", 115693, "1ab92549e9fede85b9c20bc411484e62", "d50c0f44968b0c12aa1380a574ef8aaa");
    ("matrix_multiply", "coredet", 24884, "a49997cd3edd0d2fad4d46bcba6c9fd6", "15902b759f46a4526dd8e831b2ad1a63");
    ("pca", "coredet", 130901, "468eac9d03283fb0478ab552d4598f94", "9c8c2fb574eb3d434642bd74335a27d2");
    ("wordcount", "coredet", 115157, "e4face3abd00a5aaa37584549c15d24f", "96574224e1be8fb8ba86a5a19a42fdc1");
    ("string_match", "coredet", 194528, "083f553d1fe3748847346cbb55828997", "26cdee11eeac89cc0faaedd151265dd5");
    ("blackscholes", "coredet", 123271, "c2b14cd5f3b234688feb6ea6807a652c", "59259d4cbe36b398d22dc9765244554e");
    ("swaptions", "coredet", 41638, "b21b07d3d8e2728db773bf4c4bb366a2", "01f22ccdb90f1c2402645bfa78162180");
    ("dedup", "coredet", 842233, "160d085a2060624482db266643a10df1", "6ecba77d9a949c4cdf3a9b915072d007");
    ("ferret", "coredet", 2599696, "8628f59cde705040787e7bfe3ee95ad8", "13d11ee51365224ec3a9519c9d74cd25");
    ("micro-lock", "coredet", 17237, "f336cf636abe3c3f34af2f56508aa947", "039b78731c251c9acbc2b5a80e12d694");
    ("micro-handoff", "coredet", 16742, "521300611a402d69c8a0d85414726078", "f694e138c5ba8ea093e654273dd84da2");
    ("micro-barrier", "coredet", 7053, "14178fb8d84d3d1fba20a7a1ca2b3396", "41603f97c94b1f7ea999eab193d80b44");
    ("micro-atomic", "coredet", 14524, "c8c25c21826d4b3b11c893c3b933f125", "533fbb346b7942fcc80aec3f40042972");
    ("micro-rwlock", "coredet", 20123, "485b112a2072be2ea53e86c9b1f3f842", "de62b15fb8d83842bbd17dae1c477d77");
    ("micro-sem", "coredet", 17237, "948c81a58083f5aa64902f10677fdb57", "039b78731c251c9acbc2b5a80e12d694");
    ("micro-steal", "coredet", 15712, "740a8449e9fd79c429b6fdc22b1fbce4", "37092dd53cae8ec9e114dccd89c02883");
    ("prodcons", "coredet", 109849, "0e51e5192dfccb77675f6f8e235ff3a6", "027e175d35308f7023634a541c5b7dc3");
    ("kvserver", "coredet", 853809, "5bb78d91e0ffbbebdc77d2df4a547566", "2d262e4aa8d185772bb05dba44819101");
    ("kvserver-rw", "coredet", 872257, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "761fa9bfddbd600e7b108625bec22879");
    ("racey", "kendo", 68664, "d57b0a236a91265db62a60b87aa866b7", "378daa87a32f5c000803d02aaea4d431");
    ("ocean", "kendo", 87818, "f609beebf68b408fb36398ac63919a3f", "f038e7b0384050ee43229e4133d08d39");
    ("water-ns", "kendo", 426546, "acdf6dc09c244f36897825533168e1de", "3d514f02d9d4f364849297730a495e77");
    ("water-sp", "kendo", 362654, "8293e3942eaaf9119bc1589334bbb187", "869a8008e2ccace6cdc20c8c8991ec0c");
    ("fft", "kendo", 320380, "a3c41f6d0ab9d8d21479ef501e0d586a", "dfc84a657a408ce5d82ee0099fe1dff1");
    ("radix", "kendo", 154392, "e95515b74ef44b5aba431c5ed7099611", "b4cc70b17637d91f752b0ee9800d25ed");
    ("lu-con", "kendo", 103350, "e6928666fe4854ff41446c69c2589934", "58fbd55dfe9dadcf9bdc8b12f1eabcf5");
    ("lu-non", "kendo", 103350, "8bbf6044f402be55490828e49697c404", "58fbd55dfe9dadcf9bdc8b12f1eabcf5");
    ("linear_regression", "kendo", 95066, "1ab92549e9fede85b9c20bc411484e62", "6d67d8a8b862ae44126d87be1c688aa4");
    ("matrix_multiply", "kendo", 62212, "a49997cd3edd0d2fad4d46bcba6c9fd6", "8d56f73e555d7259fb72fb0d3186306a");
    ("pca", "kendo", 146343, "468eac9d03283fb0478ab552d4598f94", "2c53a10dfd6b2626f656844b647616be");
    ("wordcount", "kendo", 210744, "e4face3abd00a5aaa37584549c15d24f", "9534f3dda74f66e2fc6454f8662b00c5");
    ("string_match", "kendo", 131032, "083f553d1fe3748847346cbb55828997", "836f3ca516441c5517314d8f6e198d3f");
    ("blackscholes", "kendo", 89361, "c2b14cd5f3b234688feb6ea6807a652c", "819b9459c4da68e8eac8f1aca47f660a");
    ("swaptions", "kendo", 64577, "b21b07d3d8e2728db773bf4c4bb366a2", "fd17eb4ecb9cfa6fc54d1d7ef5dc4eb7");
    ("dedup", "kendo", 258437, "160d085a2060624482db266643a10df1", "d71fc4263f0304d398fbf187b28b8637");
    ("ferret", "kendo", 746866, "8628f59cde705040787e7bfe3ee95ad8", "a5111b6e67fef4deca668452a5e0a82a");
    ("micro-lock", "kendo", 59122, "f336cf636abe3c3f34af2f56508aa947", "2043b7a9a4c786c2c976e50d4680756b");
    ("micro-handoff", "kendo", 44896, "521300611a402d69c8a0d85414726078", "a96d71b5d97f8452b423161777edbfca");
    ("micro-barrier", "kendo", 44535, "14178fb8d84d3d1fba20a7a1ca2b3396", "8b4b88bc8eeaab1ff2a4e86e1b63bb05");
    ("micro-atomic", "kendo", 59058, "c8c25c21826d4b3b11c893c3b933f125", "a75d1c1a92210f97b5b04c32cb1fbe07");
    ("micro-rwlock", "kendo", 59677, "485b112a2072be2ea53e86c9b1f3f842", "28903c5367e948e3e0a71dba5a251e6e");
    ("micro-sem", "kendo", 59122, "948c81a58083f5aa64902f10677fdb57", "2043b7a9a4c786c2c976e50d4680756b");
    ("micro-steal", "kendo", 59692, "740a8449e9fd79c429b6fdc22b1fbce4", "1f294f3348a2d4f2ce2b0d91cca10536");
    ("prodcons", "kendo", 80489, "0e51e5192dfccb77675f6f8e235ff3a6", "cc1581a8458efd0fbba220ed7f1a0133");
    ("kvserver", "kendo", 296487, "5bb78d91e0ffbbebdc77d2df4a547566", "6da356ab803be55358646f645a0faa25");
    ("kvserver-rw", "kendo", 178435, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "cf76b93c64ffaeae5489ba116864383b");
    ("racey", "rfdet-ci", 74204, "7193d59fe3ab0663e07f563c9b4eb27c", "0a03898c5d4c7b2c7c13742d546ab929");
    ("ocean", "rfdet-ci", 137861, "f609beebf68b408fb36398ac63919a3f", "afc271eacc386e43400f02f6f40fa3bc");
    ("water-ns", "rfdet-ci", 506773, "acdf6dc09c244f36897825533168e1de", "751c73bcd1146fe5f19b8483e91af3f3");
    ("water-sp", "rfdet-ci", 408838, "8293e3942eaaf9119bc1589334bbb187", "e1a66b63b75390a7d604bcd62af5714c");
    ("fft", "rfdet-ci", 567226, "a3c41f6d0ab9d8d21479ef501e0d586a", "49822a4ccc3643f27d08f9453a1802b3");
    ("radix", "rfdet-ci", 245910, "e95515b74ef44b5aba431c5ed7099611", "6ed74113d7c6ba22e7fa6d4e12b1ca68");
    ("lu-con", "rfdet-ci", 121497, "e6928666fe4854ff41446c69c2589934", "68a66983813a7c742801aa1031945608");
    ("lu-non", "rfdet-ci", 124520, "8bbf6044f402be55490828e49697c404", "623c32edcab757e98d9cd8a7f2e53ded");
    ("linear_regression", "rfdet-ci", 97201, "1ab92549e9fede85b9c20bc411484e62", "4f638a38acb62a53c53e21bf7a38f6c7");
    ("matrix_multiply", "rfdet-ci", 65093, "a49997cd3edd0d2fad4d46bcba6c9fd6", "e7e21f6908b1db54239a8bbf0d01557e");
    ("pca", "rfdet-ci", 159313, "468eac9d03283fb0478ab552d4598f94", "25f8ef76fa2c4f7fffc4b445770429ea");
    ("wordcount", "rfdet-ci", 220640, "e4face3abd00a5aaa37584549c15d24f", "f8cfc504758b31d08659d47eddbd492e");
    ("string_match", "rfdet-ci", 133009, "083f553d1fe3748847346cbb55828997", "41614fe0544e530f0328f9b84acaac93");
    ("blackscholes", "rfdet-ci", 108292, "c2b14cd5f3b234688feb6ea6807a652c", "5ba542d4f85b294ef6c787fa1ff81a74");
    ("swaptions", "rfdet-ci", 75886, "b21b07d3d8e2728db773bf4c4bb366a2", "2205549557f5109f2b56a1e1cb6c5453");
    ("dedup", "rfdet-ci", 353716, "160d085a2060624482db266643a10df1", "3227c4b192b54922735e94177864180f");
    ("ferret", "rfdet-ci", 1136460, "8628f59cde705040787e7bfe3ee95ad8", "4adfe552bdd8d7ecbbbbfa30702ad82e");
    ("micro-lock", "rfdet-ci", 61351, "f336cf636abe3c3f34af2f56508aa947", "ceeef0d156f0a28ef79405fa51cc4785");
    ("micro-handoff", "rfdet-ci", 47950, "521300611a402d69c8a0d85414726078", "9ec7b212f97cbe4d46607dff0d5c525c");
    ("micro-barrier", "rfdet-ci", 46827, "14178fb8d84d3d1fba20a7a1ca2b3396", "e9ebd48f383db14a2e7f5d7747d1bece");
    ("micro-atomic", "rfdet-ci", 61171, "c8c25c21826d4b3b11c893c3b933f125", "d035512994227119b31b5d15db047ee7");
    ("micro-rwlock", "rfdet-ci", 63471, "485b112a2072be2ea53e86c9b1f3f842", "e1296b524ff38ef545c1e1c59fa1b4e6");
    ("micro-sem", "rfdet-ci", 61351, "948c81a58083f5aa64902f10677fdb57", "ceeef0d156f0a28ef79405fa51cc4785");
    ("micro-steal", "rfdet-ci", 61534, "740a8449e9fd79c429b6fdc22b1fbce4", "07f43d358b0379f916962a59a9a632bc");
    ("prodcons", "rfdet-ci", 102652, "0e51e5192dfccb77675f6f8e235ff3a6", "f51944922a2aed670344c4774de53427");
    ("kvserver", "rfdet-ci", 540513, "5bb78d91e0ffbbebdc77d2df4a547566", "10050befdab9f9d372016af416905fcc");
    ("kvserver-rw", "rfdet-ci", 251017, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "d2dfe1d13de033ffc8f2cbb0b529b473");
    ("racey", "rfdet-pf", 85887, "7193d59fe3ab0663e07f563c9b4eb27c", "963b9e8d33fa06966175150c5912ed3e");
    ("ocean", "rfdet-pf", 451901, "f609beebf68b408fb36398ac63919a3f", "17b204279efc4ca6c321231f1924f5e5");
    ("water-ns", "rfdet-pf", 1110463, "acdf6dc09c244f36897825533168e1de", "70d91365a043f6de733a2ed1c4b5c63a");
    ("water-sp", "rfdet-pf", 731934, "8293e3942eaaf9119bc1589334bbb187", "602c5166f8dfb558a9da3a99a5242b8f");
    ("fft", "rfdet-pf", 800606, "a3c41f6d0ab9d8d21479ef501e0d586a", "25f569c01d46c363a9e2b27619fa2016");
    ("radix", "rfdet-pf", 388742, "e95515b74ef44b5aba431c5ed7099611", "0838c5679ad39149763523f9d3564b7c");
    ("lu-con", "rfdet-pf", 196715, "e6928666fe4854ff41446c69c2589934", "be4b9431f8de61f3173290af5a05b82b");
    ("lu-non", "rfdet-pf", 217338, "8bbf6044f402be55490828e49697c404", "b7d5f448b8a6a9ca1cffe6536c196a33");
    ("linear_regression", "rfdet-pf", 108795, "1ab92549e9fede85b9c20bc411484e62", "012805c77802ee6c3c2152a748b822bc");
    ("matrix_multiply", "rfdet-pf", 77940, "a49997cd3edd0d2fad4d46bcba6c9fd6", "a2db66310160a58d20abc6799b4e9486");
    ("pca", "rfdet-pf", 231865, "468eac9d03283fb0478ab552d4598f94", "7edd3745ecaaf13c117bd98194422f9f");
    ("wordcount", "rfdet-pf", 259233, "e4face3abd00a5aaa37584549c15d24f", "67337132ecc022e1b89ccb631edae192");
    ("string_match", "rfdet-pf", 144606, "083f553d1fe3748847346cbb55828997", "a081f66e8981d2629d3469c06d2156a1");
    ("blackscholes", "rfdet-pf", 194570, "c2b14cd5f3b234688feb6ea6807a652c", "b93b4f72ce98d6480c08cc400e5a940b");
    ("swaptions", "rfdet-pf", 109065, "b21b07d3d8e2728db773bf4c4bb366a2", "a54a44271f930c3591d95d4ae3f4d2c1");
    ("dedup", "rfdet-pf", 1096462, "160d085a2060624482db266643a10df1", "bcb27a4123987c31d84d4607c0bf22c6");
    ("ferret", "rfdet-pf", 3317222, "8628f59cde705040787e7bfe3ee95ad8", "e26a65c59ecac1981239c264d9d961c7");
    ("micro-lock", "rfdet-pf", 78429, "f336cf636abe3c3f34af2f56508aa947", "f7bdca8f3a2c59a11738f77abafa58f8");
    ("micro-handoff", "rfdet-pf", 67146, "521300611a402d69c8a0d85414726078", "0b0c4334993952fbe1e495724f0c63e7");
    ("micro-barrier", "rfdet-pf", 59824, "14178fb8d84d3d1fba20a7a1ca2b3396", "f43aef0cab40a7b4d043ba7f52204d9e");
    ("micro-atomic", "rfdet-pf", 73568, "c8c25c21826d4b3b11c893c3b933f125", "99c43175012c4668d4adfd2bb2f7863c");
    ("micro-rwlock", "rfdet-pf", 86465, "485b112a2072be2ea53e86c9b1f3f842", "ffb0c659c6d6fabbbb012bfc0a042ba6");
    ("micro-sem", "rfdet-pf", 78429, "948c81a58083f5aa64902f10677fdb57", "f7bdca8f3a2c59a11738f77abafa58f8");
    ("micro-steal", "rfdet-pf", 68533, "740a8449e9fd79c429b6fdc22b1fbce4", "87c7c9dd2cfde94644bdc2fd66c75010");
    ("prodcons", "rfdet-pf", 235939, "0e51e5192dfccb77675f6f8e235ff3a6", "0a095b529518dc0296dce8ac48cfccc0");
    ("kvserver", "rfdet-pf", 2071418, "5bb78d91e0ffbbebdc77d2df4a547566", "424409da8bf411897678c024c9658b5b");
    ("kvserver-rw", "rfdet-pf", 975183, "e4a1bb1d1f41d1108d0c8b374cedf3f7", "ae1f84b5bb5795c2fdf0c7f14253b523")
  ]

let test_pinned runtime () =
  let name = Runner.runtime_name runtime in
  List.iter
    (fun (w : Rfdet_workloads.Workload.t) ->
      let sim, signature, digest = measure runtime w in
      let got = (w.name, name, sim, signature, digest) in
      match
        List.find_opt (fun (w', r, _, _, _) -> w' = w.name && r = name) expected
      with
      | None -> Alcotest.failf "no pinned row for %s/%s" w.name name
      | Some want ->
        let show (w, r, sim, s, d) =
          Printf.sprintf "(%S, %S, %d, %S, %S)" w r sim s d
        in
        Alcotest.(check string) (w.name ^ "/" ^ name) (show want) (show got))
    Registry.all

let suite name runtimes =
  ( name,
    List.map
      (fun rt ->
        Alcotest.test_case (Runner.runtime_name rt) `Quick (test_pinned rt))
      runtimes )

let suites =
  [ suite "baseline-costs" fence_runtimes; suite "kendo-costs" kendo_runtimes ]
