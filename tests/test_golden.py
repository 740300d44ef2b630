"""Golden artifacts: the seeded build suite and its reductions, byte for byte.

Each GOLDEN entry is (p, weights, iterations_used, SHA-256 of the canonical
JSON of ``wach_to_dict(solve_wach(m))``) for ``generate_suite(7, count=33)``
at the default profile.  The digests cover C, G at the user window and
``meta.iterations_used``; they were recorded before the Gamma-solve moved to
packed series-matrix steps, which must not change one byte.

REDUCED holds, per module, the SHA-256 of the canonical ``reduce`` payload
(``reduction_to_dict(recover_filtration(w, m.h))``: fil_ranks, weights,
A_recovered, adapted_basis, fil_generators).  They were recorded while
recover_filtration still divided each entry of C once per r, before it
divided each entry once for all r.

BOOTSTRAP holds, per context (p, N, M_pi0, chi_gamma), the SHA-256 of each
field ``build_context`` computes, user window and guard-order ``work`` twins
alike, as the canonical JSON of its coefficients in decimal strings.  They
were recorded while ``pi0_coordinates`` still back-substituted one unpacked
coefficient at a time and ``binomial_power`` inverted each denominator, before
both moved to packed and batched arithmetic, and while the context still
stored its user-window fields.  A name is read from
``oracles.user_window(ctx)`` when that view has it (teich, pi0_in_pi,
phi_pi0, gamma_pi0, u, v_gamma: the work twins truncated to the user
profile), and otherwise from the context by its dotted path (q, work.*).
"""

import hashlib
from functools import cache
from operator import attrgetter

import pytest

from oracles import user_window
from wachkit.cyclo import get_context
from wachkit.reduction import recover_filtration
from wachkit.serialize import dumps_canonical, reduction_to_dict, wach_from_dict, wach_to_dict
from wachkit.suite import generate_suite
from wachkit.wach import solve_wach

GOLDEN = (
    (3, (0, 1), 20, "618e739d4e99faf7a7b38249b199c22150865c39ef32c0afc9cb85c4a6fc1483"),
    (5, (0, 0, 3), 19, "f95758a7f7458dbbc1a806fa4751efdd7d04908ca89e0cc78375edd5a6a18448"),
    (7, (4,), 5, "5cb2e6003f597a462738859d40692582ebf270f137cc010d5bcf2047bd3be5aa"),
    (3, (1, 1), 11, "ae88c7e3ed056ecd93531b75cc87ca551b696a9cd1aee602a9c1cc7655155b3b"),
    (5, (1, 2, 3), 7, "033f4225f8d5ed3763a5c125ad1c3fe5c78c489b1373c67acc89d3e7d2e5bf2f"),
    (7, (5,), 5, "ca314a1c40b2d8b0d66012066d1651155baa538e93e8cf45f832e50af6a01d14"),
    (3, (1, 1, 1), 11, "3f9607e0d1841fff2d43860dd0f4d7230f5ab730a101473ff09f2fdad62428a0"),
    (5, (1, 2, 2), 7, "eda08ca8a372ae76737ae2a8f319f3c7ba0d2eac70597925a3dda6763996dd9f"),
    (7, (4,), 5, "073f6180d265ce442b2fd635010f63e3057350f796f1c7b6d7d945e61d1a06e7"),
    (3, (1,), 11, "8a1ec6c516f73fd931bb8754dcce399b9cc2ef14177441f4c83fac177908fa16"),
    (5, (3,), 7, "d9b8f8eae53a450b441c5cb69b56ceef6e0f6ad5bf93cc6269793fdef7054fea"),
    (7, (0,), 1, "b95372401bd87bcbd6e11adf9e7f73665aa51c0d0b927c3ba16bf8e5c4fe0395"),
    (3, (1, 1), 11, "1966b156e0111438dbc5242bfb50088f2b5521016f55a2af37e3f22f6b2f672e"),
    (5, (2, 2, 3), 8, "c6265db6215658a181f9e02435685baa78e6c00c855d7e5d49e5949dae6e2b09"),
    (7, (1, 2, 5), 11, "5f9af04d8e16d916178fe6e9d0ddb444d290b57d82f41b0cdffc37f21e9d11ec"),
    (3, (1,), 11, "88403cbe24fe3d250fb8f778ee1f892b63ceb6eafdd5c13ee587a98ea5e8c8c5"),
    (5, (1, 2), 8, "8c0bebb38815273f56af26649a3ca74a61fa70157add6febfcc70ef9989d5616"),
    (7, (0, 2, 5), 18, "0eda2cca03cc95fb4d18de31540d604e0607a31d52e5a7fd7c7250d24e66da4c"),
    (3, (0, 1, 1), 19, "2a677e6a7b54722483f33c3f57180c72f8de59897be797b4804397f07e104799"),
    (5, (2, 3), 8, "476d60b29647cbc6c8ca65c90bf8473ae2339b934205eb42489b1a0e547ebd0f"),
    (7, (1, 1, 4), 8, "cd30db6c742372d38df929dd0a337924a1f1da924a31a48cebff368a445b8c10"),
    (3, (0, 1, 1), 20, "00148297410acbbb7eaa2d9b9d125742858cf4b71b533af76a669ca7ac5d6439"),
    (5, (0, 0), 1, "803f965bbc925ce58fe7070884381dc3de11f32a2212ec09a71b14160a29ddfa"),
    (7, (1, 3), 5, "83710a04d640c21239e262e26c8c5166b256e5179f13d07ff3fe9270b4544813"),
    (3, (1,), 11, "246d16fec3f9827f0b7b38f26f0a5361cbf369fcc5db3fb15cc76dfc056776be"),
    (5, (0, 3, 3), 11, "581c5697a4db5ebcae1c2ee6cbeee514dae5fba7b10e878e872e9a92ffd883e9"),
    (7, (0, 3), 8, "7f49975c15ffdef21cdf662acb49078ffdcfe8e33fe027daca2467bc10a2a940"),
    (3, (0, 0, 0), 1, "67e8d9d0f6f3ded873efdcebf24044868688c4742076ecb0a53454a7d2d46439"),
    (5, (1, 2, 3), 11, "d0bf3bc5f215567df99d71de421f29a57ce8da6345a8655d0c119328190febc6"),
    (7, (1, 1, 2), 6, "e7b791dc4225846fbd06a67cea5204119ed783d96e1e9c7a983389a50f415587"),
    (3, (0, 1), 20, "2e77319c86c4595f24c119c25215036f226f9cab467fd1a7ca6ed3e320277795"),
    (5, (3,), 7, "2d98d500746b2ba57d92582865b163b99deb263e53e06cf4932ea7878dff22de"),
    (7, (0, 3), 8, "c9b96bd09d3d3619faf71cf80b226d7bc02cd4036c0415fc1aad05d3c1dc331b"),
)

REDUCED = (
    "6e1bb1672ef3676b3b81fc447a6122ff227cdec88a1f1ba024547447ba416fb4",
    "d1f722e07ccca4cf123c350851cba8569c8011a1f5e5537598f24c1a35a3bf5c",
    "cd999ae3fbbd5103fa87b62a8df67101861e9c4592cf99a1444fe8c880b02659",
    "d06439eb3c5091af7126da3500b26a0391d83d1727d67365e182ec44a0bae533",
    "1ae19687bf171c0f8bd2fb1b3a379d1f31b621e783136001ebddd2ee1066319f",
    "1cf68ff413b579227ea621f29ec383e17e7a57af4ba79bd3fc0b0065aa8b58b2",
    "0b9c8b03cf477ca3dd2ba9a0d93b07a231546cd5bcdea8dfa5667511c084be23",
    "c301eed2950ae6ec58edce8ba703d878d7bf1bead3d5fb2741a8363d01aa064c",
    "3d926ae8bebd8fbddec35f5bfbdd43ff39a9bfde187e5de60cac12745c385d5e",
    "7610dc57d5d984ec9ca01ba5a565e14d85f566d6207ef881f7bf9acec3aedf40",
    "0da44318eb38683cd6b55d1b5b42ac18ecc4cf2e5aaa7b2502da86b98cf0835f",
    "6a749060771a661129e3db6d711a4c970e815a964c0493371d11d6d36609f29e",
    "431cd1930b7f6cb08530fd5ee1c09fed602a2002f582e7bbce8a3b2c171a2644",
    "1409c4d558615d1054a6f03ba1bd7a403e424cd3f8a1a9f077d38fdb5049983d",
    "51487cb40901ab4e78ce6b5c1a5a7bd0f1d3dc4231f88a124bc6eb082383728f",
    "258b26c5e802931766ab76b3f590d4f8554aeb4420a68e628be3f39e9ae59546",
    "1c1a45794712c51ea370faad066bdc6a394fb98446b12f1e37261d15426ee4b2",
    "0d5cba713fab19b99e4372a0c07e8961f21fac7b1ecb0819be60e0780eb089f5",
    "032368c0cb4ebbbd21e13090e933310b4d9b2b7462172799f50d0d1bc52808c5",
    "4e0dea910f98b78e84cb6dfdfa0e973f747ce7e952c27354d219ed4022cd0e61",
    "550609e9a6a3fa85d760d9fadc2c3322a23b4a20fee4bdadb43bdd2053868557",
    "ec5a0ca6bbf1eca13d6c9cda87f3ec2857c067d2dee55c7d9805e6af905ff47e",
    "fb69c8963c7730bc661d2e6a9984afb247f5b77f3a0af3184fd36419e8f54959",
    "a4536a957b335b47a81f501c7665d0e5119bee48b1652aa7aa4acf379c4cb1d6",
    "b263f1a50900cd87b8f6288d99f5c16695f4974866a772489a5c8e8ba39c15ec",
    "6b078fda7f66dc1c774efd949c3bd705d3497e8d1ec66c954897fe63ba9fc0f1",
    "18bbb98ce84d1a7dbabc7e8526e74cb60880ab88a5fb7177d47124ee6bf2eeea",
    "c06a36c60b1aa6146e82ad3e23539033fe7cbea227e7a8e1ccc56c9edf0cc616",
    "2766c9ad3daa41f36d87d1717c749708b787ec26184bcaaa49ac349b534c796d",
    "c409b154dee13b8dec01083dad898fafda7949f3a78bf88a946849dd713f2e3b",
    "da95f1d49a0b2325798dda27cca5038d34f9bd5e5be6327848e74fcb94689d73",
    "20856e1e9d40b658e6145205d8b03e4c87334a0a0da3dde7e0a5ec9c9ab52215",
    "760eb72ac8015df114acf69326cfa6cbc84966f447ab717985c52c6a5349fa47",
)


BOOTSTRAP = {
    (3, 16, 16, None): {
        "teich": "5d940fec6a27e3aa3690e51f07a4a52426dc314e80f27e618fe62a85f1160750",
        "pi0_in_pi": "e357996dd17a0a7fe4dfa968f67abc6e31f7b2ff2decad0a82daf3f0c3885d0f",
        "phi_pi0": "3cded90a7ad2d0b3342d1915e8cbf0b6ca58296c24dcc64c04374dc4943d349e",
        "gamma_pi0": "3e2734f223a91f62ce0910ff16c5e64caa9fbf5628d1f5e1cafed339d1c99e6d",
        "q": "5039aae1ddc6e59d26095759c4d565f2db431500732aafc0c1a3fc740a3a9e4b",
        "u": "1ede1104bd28ef88ff4880cd416a686a6a4c75529914028088431f9ca02603f6",
        "v_gamma": "eef5db24c7f0796666aa14edf6fe7e82bddcedc44d6e3c89a7c407a9d09ba53a",
        "work.pi0_in_pi": "2609de734f67cbdc0a9ad821777bea812614f9a32ec35e96dceaf4aa7308810e",
        "work.torsion_pi": "f01f5781f1efa748f2ee999b74c1f95f150aa9cf0e134e83fc227612dd3b8405",
        "work.phi_pi0": "8ad5ccb0a6732e6c347361b8417046e06bd69523134df35b8fa62c5569f654f9",
        "work.gamma_pi0": "b8bf7792e7bca003409e8bd3a3896bbf801078acb88ada1713ff2c41d582ceee",
        "work.q": "beeb400ba83cffd6d2924bf7be0dc6f55689675da821b93c8d023b8e3c8bbb48",
        "work.u": "60dcb667a6ca32cf88f87a34bbd0ede0063bbd2dccb62de4b1159043c920d17e",
        "work.v_gamma_inv": "318c3ec6111ac5629cb48a8ab83d2b2b18d67fc8eee34c2c1956b2e9fd6f9865",
    },
    (5, 16, 16, None): {
        "teich": "736ee4c236c671720fc61b0a2f7db11cb76225128c99d846261a3d981445d86e",
        "pi0_in_pi": "8a6f6fb54f50cdcb6de59addabcc904e39c36f881c355b5d0dc2fe4c08cabd64",
        "phi_pi0": "4b2734cf1070f86b9eec189f5ce5fd2ade3acff6f5344ea01f6224a3adf2fa61",
        "gamma_pi0": "820b81d656692fdb4b56fff9f3661a57fa0e3d7d8fd2af86fd88db4bda9b11b8",
        "q": "94e2e44d84f561f88ad97d305e66a7af74073f819a87743480a67a44733869b3",
        "u": "630391340c50006ac3cc174fcf2b60ae6c0a856f3ddfaf2750243348cb131d7c",
        "v_gamma": "be8cfbd6fa22d9e0c34f60f2c7c411ffd8ba7938f318ca2b7338985cd9baff24",
        "work.pi0_in_pi": "f202820d2ddc7af1e7e243a08e360aa72478323a2d0e1da41286b91677503dac",
        "work.torsion_pi": "c67deb6fddbb44f4fcd4dc66247d806da11a46ca4ae1757ea35ad5cce914b9b7",
        "work.phi_pi0": "8bcb4b1f3ec1953cc0cb1a4237a45fc7f760398938bfb7e0f18a6ab425d4e77e",
        "work.gamma_pi0": "9b64e3fa588052a630dc80011baad8b44efb02cdb5e0db65b96f68f110ccb3e5",
        "work.q": "5b032fda756d6b3cffcee66b4685e4ddb97b9c568f4e69977eb160afcd1d7dd0",
        "work.u": "5c4797098b2a6eda9d51b4f4671887f11a53dbafa26e57d81e3a771759dbf73d",
        "work.v_gamma_inv": "a34b8aa2cf2dd8c7b9479c6070bf5570a4e457ebb4ee0ebf026189cbc6d781f3",
    },
    (7, 16, 16, None): {
        "teich": "53b1790773aee75d5d4f68efd1fc1fd00e3bc803f869f2e65bd220ae686d9306",
        "pi0_in_pi": "3a7514543098b4e963da254d91174a4abd62cc02ecf40ca07869ee04182027cf",
        "phi_pi0": "900da09eecb9e27358194cc148f48bf2abb27b8e2d0ac63d5cf7eb9b55dda061",
        "gamma_pi0": "81a11e957233cbe7cb772d573fcaeb3d221e7ee2c0f0e4549c825baaf9a938e9",
        "q": "f47e7ee4dcd45b6ee6c77af4cb9a97c8ed589dcb218f883d1550071722ffd0df",
        "u": "60bca40b2e46e23dc8012e798d60fbfeb418404db0b193e0226f25a746d6750e",
        "v_gamma": "4d761960ec1c54fc161ae9d420217f2f1912701eb43abb7877e63588c76ca365",
        "work.pi0_in_pi": "824ec0033cdfba7330f7395f301485db8a0ee4483aaab164547896f22dd0aba0",
        "work.torsion_pi": "d0dce900486168b90b0bb003a30197565383a951460b46120876746074af2fec",
        "work.phi_pi0": "73f82950a99c1d49db92b299706d917d91e1b0ad13c114ae3a4bb92588703b12",
        "work.gamma_pi0": "2b9af6d75c8bc934ffa342a7ca7bf518874f455c1c76c7c26b44b8c3d4d35ade",
        "work.q": "e5e1cc5ca7083eb31f2863f7a0b804d9c6ce89b5671ae62522a465756fd55f74",
        "work.u": "08b479d9ca397c4afd9f464a6276e89ebd4fac03a0408e496e148b963df0ba02",
        "work.v_gamma_inv": "26d5f6817066fce4de1b719b7cb2e8619923860fa26599e429efaccddbc2bb50",
    },
    (11, 16, 16, None): {
        "teich": "b5e9812d53938eda2fde86789eb21b07ee5fdd895cba06e59d248fbee0f61577",
        "pi0_in_pi": "fdd55a6c1bcebb593feb25bcc93e0ded2d7a58999ea3975059ddf766b04317b2",
        "phi_pi0": "cbb82ea750e60ba315345f61e1f586f91c57d2e092892ddf1d5c2c82e895e01d",
        "gamma_pi0": "7da6e1b6a15df0d18abdc1fbc48c39a65e96f909be798008f5a838135e8d9f58",
        "q": "b5f0515c4c1164e7126162c5916a9492808916e1233a63c61d9111511af3cc3b",
        "u": "60275498047eb77b7a5e124d256f8016308d283a763c338183f6c7eced603410",
        "v_gamma": "527d1c208c89fe9d63953aa82d07b1bd8d753a849151f54b58bf879e079a5fe5",
        "work.pi0_in_pi": "3081e9fd6a1c0959b4799f521ce69aa141194c1a9c9e1b9877832d36b66d1a96",
        "work.torsion_pi": "ee8f38d74cd1ded9b54ac98579a711f8834101a5b8381b337d178f4b8df90c92",
        "work.phi_pi0": "3c8f2127d031299b9cf12afa2478bb3f1aae145a51925d34828884624d038a6a",
        "work.gamma_pi0": "076d702612bb05f1d868b2f37fa25a08f07bdaba3ddb248e84b19e6c8a362836",
        "work.q": "bb54ab532a6270c376b28b0eea31c0e63af2a2558650c69b6e9ef3ee8fa09f54",
        "work.u": "f7ae0079cf9702d059a7156d40fe70d57dea90cceb87a73ac8e5ed8fdba2b504",
        "work.v_gamma_inv": "21d1967c5611a64b6174e6aa5bc60a4f25b9909d72b358696af70d171395b354",
    },
    (13, 16, 16, None): {
        "teich": "bb9c63acca9edc8df86cbee0ea7a326d68a40d4122bf2239d96bdbe43df213eb",
        "pi0_in_pi": "bc757acc79ba2467f2a08df21e819fb6c099a5f091bc558db50baf1eb95d984d",
        "phi_pi0": "fc4c9b0e976dd57badea1b329e890d48d07d572a39f0a3bf0043fa9362d5cd11",
        "gamma_pi0": "6c404d8aafe5830e3d7f384ca3448792cdf27b355e8a05490b1e60af47415efd",
        "q": "ab26ba5b4a64a211e445d04f3dd86f9e87f71298778f5f3156c2dbdd3cc64222",
        "u": "fdba357da657dad75e41ff23a69a5cf3af58ddf82cd0281dfe19a08df5dc4883",
        "v_gamma": "f7fc9f0121abd6f132c8e3737f9a4592c666210b58c40062005f593175875c16",
        "work.pi0_in_pi": "4bc5419e678c0e92025b607463a3edbb41d308b7d0c8a98cfb0a2614f9a0b1be",
        "work.torsion_pi": "3b1cb5788efe45c439d5f65fa80d4de03a3adeac9c1a9a1bfafccfc3c0daee52",
        "work.phi_pi0": "02dbb8d01bfd1bad697bf545766b27e6241ac0ccb9697a1d4a9c820e794f3379",
        "work.gamma_pi0": "95f9557b22f9706fe667f025f632f2650d5cbd338d90dad6c3743993f7e35a56",
        "work.q": "9bfad141b895297dbbd98e70ef61e2c65a7b209b468922fc81531864c8d28c07",
        "work.u": "e7f065a9399618069bc7a118095b04678d1a56ca01428ac42817875182cdc6c1",
        "work.v_gamma_inv": "ffbdbe57d3033e15bf1178f4fb6986bdd7148912fdec4b2271fe46bc8c6c0aff",
    },
    (17, 16, 16, None): {
        "teich": "ccd6e5d0515640545a8992e8d75373617752d72de5f2f2305eb991e88f893a24",
        "pi0_in_pi": "e4e9dba0a1ce622741aae6be8c8e7f028a8fe8a39111cfba89a496a3158f4595",
        "phi_pi0": "c4a2556f4dde93b59951b77e38916246510b2050803f96881268ba23432cc2c3",
        "gamma_pi0": "3eb5850cce68e5ee96d911b77864527e4f9a3387b03db0457495880d92df0b6c",
        "q": "db7a10c92b53d1831103739dcee092cb47b896e688cbf9e0fd5fcc24e41c9c61",
        "u": "b863fb7b31bc00fb2990b79772b0dae2bfaf30271465b437723d29c3ab05fdba",
        "v_gamma": "9c12031e2102308bb30460d97136bbccfbd438c6ced5a73a7f0666627923e13a",
        "work.pi0_in_pi": "3be7d0fd5547779fb93e98ceaa892f7f01fc6f922bd30f9960b68bde132bb9d7",
        "work.torsion_pi": "3a13ca405b02f6fe4dfa1b0193a9aa4c4ae90d56d183845d5227985332c03848",
        "work.phi_pi0": "b9c9338bc3164a489fcf92da52a8d773c7b082dec9d52eb396c61563836d7966",
        "work.gamma_pi0": "4cf2e86e007b573bfc4586621dbeb1a7d9b86f573c56b31a6fdccd81b3244a09",
        "work.q": "2ff22ebc275af20e02f05f826597bc315383bed2ef99bcc1aaaea019381606af",
        "work.u": "bc09f215323ef52e9f0ff452ff239070bf727bf53fbde19817cb1e46d3288be3",
        "work.v_gamma_inv": "6d7d23a35458f2ddd2db609873e0f5094000564340bb0d2080a07fad9602e9f0",
    },
    (7, 4, 9, None): {
        "teich": "c9637945b938911e7d7b28f6c716fdafd86b5596b22ad94028ab58e54022de58",
        "pi0_in_pi": "40eb8117034f8b39d01f9596fd75cc13603b413dac62dc12d9fb691ec4a4dc77",
        "phi_pi0": "fb46af9a637c70ead40c714a068f90da43376f5dabe421f4ff342331f67440e0",
        "gamma_pi0": "427e7e4ff6bce8b20d83041d13fe81d846b4f90ef2ba55679f6a39a48c2eca01",
        "q": "ed118de95b8582cd3fdd26bfd41791957aeb7944af14b683385a49503851a11e",
        "u": "4f4c21a5ad0c61a8f53226c2484e0ebb0aa5a000db1eec5e4bebe323ef77b4f4",
        "v_gamma": "77f8812d893e9a48c9b851c39c79997e641c506c96e42315c4c55b0982cb8a13",
        "work.pi0_in_pi": "eb955e517b46bc7fae247035c94ba796698295dc18adbfb58bcbaea76b492f0b",
        "work.torsion_pi": "37514d9d1e2955a06b56114f01881c53a5e3f1eeb57381b909d93a4dc2b1c057",
        "work.phi_pi0": "629077855e63483ed31a9b13f94dd341ab4718ef8b0aeaaee2bccf4d28745566",
        "work.gamma_pi0": "345b101d4decd9169f9fdb1de23f5e36872cef758c17783a7063ce5e96ff814c",
        "work.q": "91bc1b228deb39c37fafd7a9974b94b448cba7893a035e772735980f894523de",
        "work.u": "88fbeb363304b1b2ecee203bd2cb70d1b2263f505e2486c640fbe064e67157ef",
        "work.v_gamma_inv": "e91148b5502bd2ffde0c59ac55200a2c464c0fa4b35f6be5bbaf2a70b121239b",
    },
    (5, 16, 16, -4): {
        "teich": "736ee4c236c671720fc61b0a2f7db11cb76225128c99d846261a3d981445d86e",
        "pi0_in_pi": "8a6f6fb54f50cdcb6de59addabcc904e39c36f881c355b5d0dc2fe4c08cabd64",
        "phi_pi0": "4b2734cf1070f86b9eec189f5ce5fd2ade3acff6f5344ea01f6224a3adf2fa61",
        "gamma_pi0": "3d31a8ef45b333f28adf5eddcd1bee6409cf33bb31f7614022b2645158e538ca",
        "q": "94e2e44d84f561f88ad97d305e66a7af74073f819a87743480a67a44733869b3",
        "u": "630391340c50006ac3cc174fcf2b60ae6c0a856f3ddfaf2750243348cb131d7c",
        "v_gamma": "e6f7ee30c22f96f4aee5cb755a0d79438bf7c031f573ad0e6644bbdba99e5982",
        "work.pi0_in_pi": "f202820d2ddc7af1e7e243a08e360aa72478323a2d0e1da41286b91677503dac",
        "work.torsion_pi": "c67deb6fddbb44f4fcd4dc66247d806da11a46ca4ae1757ea35ad5cce914b9b7",
        "work.phi_pi0": "8bcb4b1f3ec1953cc0cb1a4237a45fc7f760398938bfb7e0f18a6ab425d4e77e",
        "work.gamma_pi0": "cb2acc44e3daa9e412f623b065c6056370a72e28e032e20a767d14806c6847a2",
        "work.q": "5b032fda756d6b3cffcee66b4685e4ddb97b9c568f4e69977eb160afcd1d7dd0",
        "work.u": "5c4797098b2a6eda9d51b4f4671887f11a53dbafa26e57d81e3a771759dbf73d",
        "work.v_gamma_inv": "fe1c5afa1fe4a8a6f1acae50b7457bf9474334e0e7c4f86a0bc8e459e3cb23f5",
    },
}


def _sha256(payload) -> str:
    return hashlib.sha256(dumps_canonical(payload).encode()).hexdigest()


@cache
def _solved_suite():
    return [(m, solve_wach(m, get_context(m.p, m.N, m.N))) for m in generate_suite(7, count=33)]


def test_seeded_suite_artifacts_are_unchanged():
    suite = _solved_suite()
    assert len(suite) == len(GOLDEN)
    for (m, w), (p, weights, iterations, digest) in zip(suite, GOLDEN):
        assert (m.p, m.weights) == (p, weights)
        assert w.iterations_used == iterations, (p, weights)
        assert _sha256(wach_to_dict(w)) == digest, (p, weights)


def test_seeded_suite_artifacts_load_back():
    # every recorded step count lies within the loader's proved bound
    for _, w in _solved_suite():
        assert wach_from_dict(wach_to_dict(w)) == w


def test_seeded_suite_reductions_are_unchanged():
    suite = _solved_suite()
    assert len(suite) == len(REDUCED)
    for (m, w), digest in zip(suite, REDUCED):
        assert _sha256(reduction_to_dict(recover_filtration(w, m.h))) == digest, (m.p, m.weights)


def _coefficients(value):
    """A context field as JSON: a series' coefficients, or a tuple of such, in decimal strings."""
    if isinstance(value, int):
        return str(value)
    if hasattr(value, "coeffs"):
        return [str(c) for c in value.coeffs]
    return [_coefficients(v) for v in value]


@pytest.mark.parametrize("key", BOOTSTRAP, ids=lambda key: "p{}-N{}-M{}-chi{}".format(*key))
def test_context_fields_are_unchanged(key):
    ctx = get_context(*key)
    window = vars(user_window(ctx))
    for name, digest in BOOTSTRAP[key].items():
        value = window[name] if name in window else attrgetter(name)(ctx)
        assert _sha256(_coefficients(value)) == digest, (key, name)
